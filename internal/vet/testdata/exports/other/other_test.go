package other

import (
	"testing"

	"repro/internal/vet/testdata/exports/lib"
)

func TestOther(t *testing.T) { lib.UsedByOtherTest() }
