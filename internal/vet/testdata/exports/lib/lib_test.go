package lib

import "testing"

func TestOwn(t *testing.T) { OnlyOwnTest() }
