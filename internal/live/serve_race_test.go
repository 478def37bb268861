package live

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

// TestServeOfflineConcurrency hammers the serving surface of a node that
// flaps between online and offline while the fleet runs: concurrent
// goroutines post feedback, publish, read the feed, the snapshot and the
// fleet's ghost fraction throughout every lifecycle transition, then again
// after Run returns. Under -race this pins the node lock as the one guard of
// the node's state: two Feedbacks on an offline node share its opinion map
// and profile, and every call must serialize with the node goroutine's ticks
// and frames and with the controller's crash wipe and rejoin re-seed. Publish
// may refuse only as an offline node (ErrNodeOffline) or a stopped fleet
// (ErrNotRunning).
func TestServeOfflineConcurrency(t *testing.T) {
	const target = news.NodeID(2)
	var schedule sim.ChurnSchedule
	for c := int64(3); c < 33; c += 6 {
		schedule.Add(c, sim.ChurnCrash, target)
		schedule.Add(c+3, sim.ChurnRejoin, target)
	}
	r := NewRunner(Config{
		Seed:         1,
		Cycles:       36,
		CycleLength:  3 * time.Millisecond,
		NodeConfig:   core.Config{FLike: 4, RPSViewSize: 10, ProfileWindow: 25},
		Churn:        schedule,
		FeedCapacity: 8,
	}, dataset.Blank(8, 36), NewChannelNet(7, 0, 0))

	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Run()
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := r.Feedback(target, news.ID(i), g%2 == 0); err != nil {
					t.Errorf("feedback: %v", err)
					return
				}
				it := news.New(fmt.Sprintf("item %d of hammer %d", i, g), "", "", 0, target)
				if err := r.Publish(target, it); err != nil && !errors.Is(err, ErrNodeOffline) && !errors.Is(err, ErrNotRunning) {
					t.Errorf("publish: %v", err)
					return
				}
				if _, err := r.Feed(target); err != nil {
					t.Errorf("feed: %v", err)
					return
				}
				if _, err := r.Snapshot(target); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				if f := r.GhostFraction(); f < 0 || f > 1 {
					t.Errorf("ghost fraction %v outside [0, 1]", f)
					return
				}
				runtime.Gosched()
			}
		}(g)
	}
	wg.Wait()
	// Post-Run the fleet is stopped; reads and feedback still serve.
	if err := r.Feedback(target, news.ID(1), true); err != nil {
		t.Fatalf("post-run feedback: %v", err)
	}
	if _, err := r.Feed(target); err != nil {
		t.Fatalf("post-run feed: %v", err)
	}
	if err := r.Publish(target, news.New("after the run", "", "", 0, target)); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("post-run publish: %v, want ErrNotRunning", err)
	}
}
