package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/systems/ipcap"
	"repro/internal/systems/thttpdcache"
	"repro/internal/systems/ztopo"
	"repro/internal/workload"
)

// SchedulerSpec is the scheduler relation of §1–§2, typed.
func SchedulerSpec() *core.Spec {
	return &core.Spec{
		Name: "processes",
		Columns: []core.ColDef{
			{Name: "ns", Type: core.IntCol},
			{Name: "pid", Type: core.IntCol},
			{Name: "state", Type: core.IntCol},
			{Name: "cpu", Type: core.IntCol},
		},
		FDs: paperex.SchedulerFDs(),
	}
}

// RunSchedulerBench replays a scheduler operation trace against a relation
// over SchedulerSpec (the scheduler micro-benchmark of §6.1) and returns
// the elapsed seconds plus an operation checksum that every decomposition
// must agree on.
func RunSchedulerBench(r *core.Relation, ops []workload.SchedulerOp) (float64, int64, error) {
	var checksum int64
	start := time.Now()
	for _, op := range ops {
		key := relation.NewTuple(relation.BindInt("ns", op.NS), relation.BindInt("pid", op.PID))
		switch op.Kind {
		case workload.OpSpawn:
			// Spawn replaces any existing process with the same ID.
			if _, err := r.Remove(key); err != nil {
				return 0, 0, err
			}
			if err := r.Insert(paperex.SchedulerTuple(op.NS, op.PID, op.State, op.CPU)); err != nil {
				return 0, 0, err
			}
		case workload.OpExit:
			n, err := r.Remove(key)
			if err != nil {
				return 0, 0, err
			}
			checksum += int64(n)
		case workload.OpSetState:
			n, err := r.Update(key, relation.NewTuple(relation.BindInt("state", op.State)))
			if err != nil {
				return 0, 0, err
			}
			checksum += int64(n)
		case workload.OpCharge:
			n, err := r.Update(key, relation.NewTuple(relation.BindInt("cpu", op.CPU)))
			if err != nil {
				return 0, 0, err
			}
			checksum += int64(n)
		case workload.OpFindByPID:
			err := r.QueryFunc(key, []string{"state", "cpu"}, func(t relation.Tuple) bool {
				checksum += t.MustGet("cpu").Int()
				return true
			})
			if err != nil {
				return 0, 0, err
			}
		case workload.OpListState:
			err := r.QueryFunc(relation.NewTuple(relation.BindInt("state", op.State)),
				[]string{"ns", "pid"}, func(t relation.Tuple) bool {
					checksum += t.MustGet("pid").Int()
					return true
				})
			if err != nil {
				return 0, 0, err
			}
		case workload.OpListNS:
			err := r.QueryFunc(relation.NewTuple(relation.BindInt("ns", op.NS)),
				[]string{"pid"}, func(t relation.Tuple) bool {
					checksum++
					return true
				})
			if err != nil {
				return 0, 0, err
			}
		}
	}
	return time.Since(start).Seconds(), checksum, nil
}

// ParityResult compares the three variants of one case-study system on the
// same workload (§6.2: "For each system, the relational and non-relational
// versions had equivalent performance"): hand-coded, the dynamic engine
// (core.Relation, on whichever execution tier its plans run), and
// relc-generated code — the last being the paper's deployment mode and the
// fair performance comparison.
type ParityResult struct {
	System string
	Hand   Timing
	Synth  Timing // dynamic engine
	Gen    Timing // relc-generated code
	Agree  bool   // behaviour identical across all variants and passes
}

// A Timing summarizes the timed passes of one variant, in seconds.
type Timing struct {
	Median, Min, Max float64
}

// ParityPasses is how many timed passes each variant runs. One cold pass
// read the same binary's ztopo engine/relc at 3.19× and then 11.22×.
const ParityPasses = 5

// parity times the hand-coded, engine and relc variants of one system on
// the same work, and records whether they behaved identically. Each pass
// builds fresh state — the variant's table, wrapped by wrap — collects
// garbage, so no pass pays for an earlier one's or another variant's, and
// times work over that state alone.
func parity[T, S any](system string, wrap func(T) S, work func(S) (int, error), hand, synth, gen func() (T, error)) (ParityResult, error) {
	r := ParityResult{System: system}
	var counts [3]int
	for i, v := range []struct {
		t     *Timing
		build func() (T, error)
	}{{&r.Hand, hand}, {&r.Synth, synth}, {&r.Gen, gen}} {
		secs := make([]float64, ParityPasses)
		for p := range secs {
			tbl, err := v.build()
			if err != nil {
				return r, err
			}
			st := wrap(tbl)
			runtime.GC()
			start := time.Now()
			n, err := work(st)
			secs[p] = time.Since(start).Seconds()
			if err != nil {
				return r, err
			}
			if p > 0 && n != counts[i] {
				n = -1 // the passes disagree
			}
			counts[i] = n
		}
		slices.Sort(secs)
		*v.t = Timing{Median: secs[ParityPasses/2], Min: secs[0], Max: secs[ParityPasses-1]}
	}
	r.Agree = counts[0] >= 0 && counts[0] == counts[1] && counts[0] == counts[2]
	return r, nil
}

// RunParity measures all three systems, each variant over ParityPasses
// passes.
func RunParity(scale int) ([]ParityResult, error) {
	// thttpd: Zipf request stream through the server cache logic.
	reqs := workload.Zipf(4000*scale, 500, 1.1, 21)
	thttpd, err := parity("thttpd",
		func(c thttpdcache.Cache) *thttpdcache.Server {
			return thttpdcache.NewServer(c, thttpdcache.NewFileStore(), 64, 300)
		},
		func(srv *thttpdcache.Server) (int, error) {
			for _, r := range reqs {
				if _, err := srv.GetFile(fmt.Sprintf("/files/%d.html", r)); err != nil {
					return 0, err
				}
			}
			return srv.Hits, nil
		},
		func() (thttpdcache.Cache, error) { return thttpdcache.NewHandCache(), nil },
		func() (thttpdcache.Cache, error) { return thttpdcache.NewSynthCache(thttpdcache.DefaultMapDecomp()) },
		func() (thttpdcache.Cache, error) { return thttpdcache.NewGenCache(), nil },
	)
	if err != nil {
		return nil, err
	}

	// ipcap: packet trace through the daemon.
	trace := workload.PacketTrace(20000*scale, 64, 1024, 23)
	capture, err := parity("ipcap",
		func(t ipcap.FlowTable) *ipcap.Daemon { return ipcap.NewDaemon(t, nil, 10000) },
		func(d *ipcap.Daemon) (int, error) {
			for _, p := range trace {
				if err := d.HandlePacket(p); err != nil {
					return 0, err
				}
			}
			if err := d.Flush(); err != nil {
				return 0, err
			}
			processed, _ := d.Stats()
			return processed, nil
		},
		func() (ipcap.FlowTable, error) { return ipcap.NewHandFlowTable(), nil },
		func() (ipcap.FlowTable, error) { return ipcap.NewSynthFlowTable(ipcap.DefaultFlowDecomp()) },
		func() (ipcap.FlowTable, error) { return ipcap.NewGenFlowTable(), nil },
	)
	if err != nil {
		return nil, err
	}

	// ztopo: Zipf tile stream through the viewer.
	accesses := workload.Zipf(3000*scale, 400, 1.1, 25)
	topo, err := parity("ztopo",
		func(idx ztopo.TileIndex) *ztopo.Viewer {
			return ztopo.NewViewer(idx, ztopo.NewTileStore(1<<10), 64<<10, 256<<10)
		},
		func(v *ztopo.Viewer) (int, error) {
			for _, id := range accesses {
				if _, err := v.Tile(id); err != nil {
					return 0, err
				}
			}
			return v.MemHits, nil
		},
		func() (ztopo.TileIndex, error) { return ztopo.NewHandTileIndex(), nil },
		func() (ztopo.TileIndex, error) { return ztopo.NewSynthTileIndex(ztopo.DefaultTileDecomp()) },
		func() (ztopo.TileIndex, error) { return ztopo.NewGenTileIndex(), nil },
	)
	if err != nil {
		return nil, err
	}
	return []ParityResult{thttpd, capture, topo}, nil
}
