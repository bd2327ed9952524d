package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/paperex"
	"repro/internal/relation"
)

// fillSched loads n random-ish scheduler tuples (FD-respecting: ns,pid is a
// key) into any engine exposing Insert.
func fillSched(t *testing.T, insert func(relation.Tuple) error, n int) []relation.Tuple {
	t.Helper()
	rnd := rand.New(rand.NewSource(41))
	var tuples []relation.Tuple
	for i := 0; i < n; i++ {
		tup := paperex.SchedulerTuple(int64(i%8), int64(i), []int64{paperex.StateS, paperex.StateR}[rnd.Intn(2)], int64(rnd.Intn(50)))
		if err := insert(tup); err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, tup)
	}
	return tuples
}

// TestCompiledConcurrentReaders hammers one shape's shared batch program from
// many goroutines: its pooled execution states must never be shared between
// concurrent runs (run with -race).
func TestCompiledConcurrentReaders(t *testing.T) {
	r := core.NewSync(newSched(t))
	fillSched(t, r.Insert, 64)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				pat := relation.NewTuple(relation.BindInt("ns", int64((g+i)%8)))
				res, err := r.Query(pat, []string{"pid", "cpu"})
				if err != nil {
					done <- err
					return
				}
				if len(res) != 8 {
					done <- fmt.Errorf("goroutine %d: query returned %d rows, want 8", g, len(res))
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
