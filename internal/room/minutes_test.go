package room

import (
	"context"
	"sync"
	"testing"
)

// TestMinutesComponentRacesPrefetchRank: saving minutes grows the
// room's CP-net while the QoS loop ranks prefetch candidates over the
// same network holding only the engine lock. Both must serialize on
// that lock; run under -race, an unguarded add reports the concurrent
// map access (and without -race, it can crash the process outright).
func TestMinutesComponentRacesPrefetchRank(t *testing.T) {
	r := newRoom(t)
	alice, _, _, err := r.Join(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the member's reader: keep the push queue moving
		defer wg.Done()
		for {
			select {
			case <-alice.Events():
			case <-stop:
				return
			}
		}
	}()
	go func() { // the QoS loop's prefetch pass
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.Engine().PrefetchRank("alice"); err != nil {
				t.Errorf("PrefetchRank: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := r.AddMinutesComponent("alice", "minutes"); err != nil {
			t.Errorf("AddMinutesComponent: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
	cands, err := r.Engine().PrefetchRank("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Error("no prefetch candidates after the minutes were added")
	}
}
