package lib_test

import (
	"testing"

	"repro/internal/vet/testdata/exports/lib"
)

func TestExternal(t *testing.T) { lib.OnlyOwnTest() }
