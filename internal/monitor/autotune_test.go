package monitor

import (
	"runtime"
	"testing"
)

func TestAutotuneShardsTracksGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(p)
		if got := AutotuneShards(); got != p {
			t.Errorf("GOMAXPROCS=%d: AutotuneShards() = %d, want %d", p, got, p)
		}
	}
}

func TestConfigZeroShardsAutotunes(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	m, err := New(testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Snapshot().Shards; got != 4 {
		t.Fatalf("Shards = %d with Config.Shards=0 and GOMAXPROCS=4, want 4", got)
	}
}
