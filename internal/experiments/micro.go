package experiments

import (
	"fmt"
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
	System    string
	HandSecs  float64
	SynthSecs float64 // dynamic engine
	GenSecs   float64 // relc-generated code
	Agree     bool    // behaviour identical across all variants
}

// RunParity measures all three systems.
func RunParity(scale int) ([]ParityResult, error) {
	var out []ParityResult

	// thttpd: Zipf request stream through the server cache logic.
	reqs := workload.Zipf(4000*scale, 500, 1.1, 21)
	runThttpd := func(c thttpdcache.Cache) (float64, int, error) {
		store := thttpdcache.NewFileStore()
		srv := thttpdcache.NewServer(c, store, 64, 300)
		start := time.Now()
		for _, r := range reqs {
			if _, err := srv.GetFile(fmt.Sprintf("/files/%d.html", r)); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(start).Seconds(), srv.Hits, nil
	}
	handSecs, handHits, err := runThttpd(thttpdcache.NewHandCache())
	if err != nil {
		return nil, err
	}
	synthCache, err := thttpdcache.NewSynthCache(thttpdcache.DefaultMapDecomp())
	if err != nil {
		return nil, err
	}
	synthSecs, synthHits, err := runThttpd(synthCache)
	if err != nil {
		return nil, err
	}
	genSecs, genHits, err := runThttpd(thttpdcache.NewGenCache())
	if err != nil {
		return nil, err
	}
	out = append(out, ParityResult{"thttpd", handSecs, synthSecs, genSecs,
		handHits == synthHits && handHits == genHits})

	// ipcap: packet trace through the daemon.
	trace := workload.PacketTrace(20000*scale, 64, 1024, 23)
	runIpcap := func(t ipcap.FlowTable) (float64, int, error) {
		d := ipcap.NewDaemon(t, nil, 10000)
		start := time.Now()
		for _, p := range trace {
			if err := d.HandlePacket(p); err != nil {
				return 0, 0, err
			}
		}
		if err := d.Flush(); err != nil {
			return 0, 0, err
		}
		processed, _ := d.Stats()
		return time.Since(start).Seconds(), processed, nil
	}
	iHandSecs, iHandN, err := runIpcap(ipcap.NewHandFlowTable())
	if err != nil {
		return nil, err
	}
	synthFlow, err := ipcap.NewSynthFlowTable(ipcap.DefaultFlowDecomp())
	if err != nil {
		return nil, err
	}
	iSynthSecs, iSynthN, err := runIpcap(synthFlow)
	if err != nil {
		return nil, err
	}
	iGenSecs, iGenN, err := runIpcap(ipcap.NewGenFlowTable())
	if err != nil {
		return nil, err
	}
	out = append(out, ParityResult{"ipcap", iHandSecs, iSynthSecs, iGenSecs,
		iHandN == iSynthN && iHandN == iGenN})

	// ztopo: Zipf tile stream through the viewer.
	accesses := workload.Zipf(3000*scale, 400, 1.1, 25)
	runZtopo := func(idx ztopo.TileIndex) (float64, int, error) {
		store := ztopo.NewTileStore(1 << 10)
		v := ztopo.NewViewer(idx, store, 64<<10, 256<<10)
		start := time.Now()
		for _, id := range accesses {
			if _, err := v.Tile(id); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(start).Seconds(), v.MemHits, nil
	}
	zHandSecs, zHandHits, err := runZtopo(ztopo.NewHandTileIndex())
	if err != nil {
		return nil, err
	}
	synthIdx, err := ztopo.NewSynthTileIndex(ztopo.DefaultTileDecomp())
	if err != nil {
		return nil, err
	}
	zSynthSecs, zSynthHits, err := runZtopo(synthIdx)
	if err != nil {
		return nil, err
	}
	zGenSecs, zGenHits, err := runZtopo(ztopo.NewGenTileIndex())
	if err != nil {
		return nil, err
	}
	out = append(out, ParityResult{"ztopo", zHandSecs, zSynthSecs, zGenSecs,
		zHandHits == zSynthHits && zHandHits == zGenHits})

	return out, nil
}
