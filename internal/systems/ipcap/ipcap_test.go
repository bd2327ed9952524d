package ipcap_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/systems/ipcap"
	"repro/internal/workload"
)

func TestParseIPv4(t *testing.T) {
	ps := workload.PacketTrace(50, 8, 16, 1)
	for _, p := range ps {
		info, err := ipcap.ParseIPv4(p)
		if err != nil {
			t.Fatalf("generated packet rejected: %v", err)
		}
		if info.Length != len(p) {
			t.Errorf("length %d != %d", info.Length, len(p))
		}
		if info.Proto != 6 && info.Proto != 17 {
			t.Errorf("proto %d", info.Proto)
		}
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	good := workload.PacketTrace(1, 8, 16, 2)[0]

	short := good[:10]
	if _, err := ipcap.ParseIPv4(short); err == nil {
		t.Errorf("short packet accepted")
	}

	v6 := append([]byte(nil), good...)
	v6[0] = 0x65
	if _, err := ipcap.ParseIPv4(v6); err == nil {
		t.Errorf("wrong version accepted")
	}

	flipped := append([]byte(nil), good...)
	flipped[15] ^= 0xff // corrupt source address, invalidating the checksum
	if _, err := ipcap.ParseIPv4(flipped); err == nil {
		t.Errorf("checksum corruption accepted")
	}

	truncated := append([]byte(nil), good...)
	truncated = truncated[:len(truncated)-1]
	if _, err := ipcap.ParseIPv4(truncated); err == nil {
		t.Errorf("truncated packet accepted")
	}
}

func TestClassify(t *testing.T) {
	local := uint32(10<<24 | 5)
	foreign := uint32(203<<24 | 113<<8 | 7)
	key, out, ok := ipcap.Classify(ipcap.PacketInfo{Src: local, Dst: foreign})
	if !ok || !out || key.Local != local || key.Foreign != foreign {
		t.Errorf("outbound classify wrong: %+v %v %v", key, out, ok)
	}
	key, out, ok = ipcap.Classify(ipcap.PacketInfo{Src: foreign, Dst: local})
	if !ok || out || key.Local != local || key.Foreign != foreign {
		t.Errorf("inbound classify wrong: %+v %v %v", key, out, ok)
	}
	if _, _, ok := ipcap.Classify(ipcap.PacketInfo{Src: foreign, Dst: foreign}); ok {
		t.Errorf("transit traffic classified as local")
	}
}

func newTables(t *testing.T) map[string]ipcap.FlowTable {
	t.Helper()
	synth, err := ipcap.NewSynthFlowTable(ipcap.DefaultFlowDecomp())
	if err != nil {
		t.Fatal(err)
	}
	transposed, err := ipcap.NewSynthFlowTable(ipcap.TransposedFlowDecomp())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := ipcap.NewShardedFlowTable(ipcap.DefaultFlowDecomp(), 8)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]ipcap.FlowTable{
		"handcoded":        ipcap.NewHandFlowTable(),
		"synth":            synth,
		"synth-transposed": transposed,
		"generated":        ipcap.NewGenFlowTable(),
		"sharded":          sharded,
	}
}

// TestShardedFlowTableConcurrent accounts the same trace from many
// goroutines (split round-robin, so flows interleave arbitrarily across
// workers) and requires the totals to match a sequential hand-coded run —
// Account's per-shard exclusive section must not lose increments.
func TestShardedFlowTableConcurrent(t *testing.T) {
	trace := workload.PacketTrace(8000, 16, 64, 7)
	oracle := ipcap.NewHandFlowTable()
	for _, p := range trace {
		info, err := ipcap.ParseIPv4(p)
		if err != nil {
			t.Fatal(err)
		}
		key, _, ok := ipcap.Classify(info)
		if !ok {
			continue
		}
		if err := oracle.Account(key, int64(info.Length)); err != nil {
			t.Fatal(err)
		}
	}

	sharded, err := ipcap.NewShardedFlowTable(ipcap.DefaultFlowDecomp(), 16)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(trace); i += workers {
				info, err := ipcap.ParseIPv4(trace[i])
				if err != nil {
					t.Error(err)
					return
				}
				key, _, ok := ipcap.Classify(info)
				if !ok {
					continue
				}
				if err := sharded.Account(key, int64(info.Length)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	want := map[ipcap.FlowKey]ipcap.FlowStats{}
	if err := oracle.Flows(func(k ipcap.FlowKey, s ipcap.FlowStats) bool {
		want[k] = s
		return true
	}); err != nil {
		t.Fatal(err)
	}
	got := map[ipcap.FlowKey]ipcap.FlowStats{}
	if err := sharded.Flows(func(k ipcap.FlowKey, s ipcap.FlowStats) bool {
		got[k] = s
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d flows, want %d", len(got), len(want))
	}
	for k, s := range want {
		if got[k] != s {
			t.Errorf("flow %+v: got %+v, want %+v", k, got[k], s)
		}
	}

	for k := range want {
		if err := sharded.Drop(k); err != nil {
			t.Fatal(err)
		}
	}
	if sharded.Len() != 0 {
		t.Errorf("%d flows left after Drop", sharded.Len())
	}
}

func TestFlowTables(t *testing.T) {
	for name, table := range newTables(t) {
		t.Run(name, func(t *testing.T) {
			k1 := ipcap.FlowKey{Local: 10<<24 | 1, Foreign: 203<<24 | 1}
			k2 := ipcap.FlowKey{Local: 10<<24 | 2, Foreign: 203<<24 | 1}
			if err := table.Account(k1, 100); err != nil {
				t.Fatal(err)
			}
			if err := table.Account(k1, 50); err != nil {
				t.Fatal(err)
			}
			if err := table.Account(k2, 10); err != nil {
				t.Fatal(err)
			}
			if table.Len() != 2 {
				t.Fatalf("Len = %d", table.Len())
			}
			stats := map[ipcap.FlowKey]ipcap.FlowStats{}
			if err := table.Flows(func(k ipcap.FlowKey, s ipcap.FlowStats) bool {
				stats[k] = s
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if s := stats[k1]; s.Packets != 2 || s.Bytes != 150 {
				t.Errorf("k1 stats = %+v", s)
			}
			if s := stats[k2]; s.Packets != 1 || s.Bytes != 10 {
				t.Errorf("k2 stats = %+v", s)
			}
			if err := table.Drop(k1); err != nil {
				t.Fatal(err)
			}
			if table.Len() != 1 {
				t.Errorf("Len after drop = %d", table.Len())
			}
		})
	}
}

// TestVariantsAgree drives all tables with the same trace and requires
// identical accounting — the hand-coded table is the oracle for the
// synthesized ones.
func TestVariantsAgree(t *testing.T) {
	tables := newTables(t)
	trace := workload.PacketTrace(2000, 16, 64, 3)
	logs := map[string]*bytes.Buffer{}
	for name, table := range tables {
		buf := &bytes.Buffer{}
		logs[name] = buf
		d := ipcap.NewDaemon(table, buf, 500)
		for _, p := range trace {
			if err := d.HandlePacket(p); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if table.Len() != 0 {
			t.Errorf("%s: %d flows left after final flush", name, table.Len())
		}
	}
	want := logs["handcoded"].String()
	if want == "" || !strings.Contains(want, "packets=") {
		t.Fatalf("no log output: %q", want)
	}
	for name, buf := range logs {
		if buf.String() != want {
			t.Errorf("%s log diverges from hand-coded", name)
		}
	}
}

func TestDaemonIgnoresJunk(t *testing.T) {
	d := ipcap.NewDaemon(ipcap.NewHandFlowTable(), nil, 0)
	if err := d.HandlePacket([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	processed, ignored := d.Stats()
	if processed != 1 || ignored != 1 {
		t.Errorf("stats = %d, %d", processed, ignored)
	}
	if d.Table.Len() != 0 {
		t.Errorf("junk packet created a flow")
	}
}
