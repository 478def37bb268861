package live

import (
	"errors"
	"testing"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

// TestDegradedFleetRefusesFeeds pins degraded-mode serving: once a majority
// of the non-departed members are offline, Degraded reports true and Feed
// refuses with ErrDegraded; a healthy fleet keeps serving.
func TestDegradedFleetRefusesFeeds(t *testing.T) {
	ds := tinySurvey(15)
	crashed := ds.Users/2 + 1 // majority offline, nobody departed
	var schedule sim.ChurnSchedule
	for i := 0; i < crashed; i++ {
		schedule.Add(3, sim.ChurnCrash, news.NodeID(i))
	}
	r := NewRunner(Config{
		Seed:        5,
		Cycles:      8,
		CycleLength: 3 * time.Millisecond,
		NodeConfig:  core.Config{FLike: 4, RPSViewSize: 10, ProfileWindow: 25},
		Churn:       schedule,
	}, ds, NewChannelNet(9, 0, 0))
	r.Run()

	if !r.Degraded() {
		t.Fatalf("fleet with %d/%d online not degraded", r.OnlineCount(), r.Stats().Members)
	}
	survivor := news.NodeID(ds.Users - 1)
	if _, err := r.Feed(survivor); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded feed error %v, want ErrDegraded", err)
	}

	healthy := NewRunner(Config{
		Seed:        6,
		Cycles:      5,
		CycleLength: 3 * time.Millisecond,
		NodeConfig:  core.Config{FLike: 4, RPSViewSize: 10, ProfileWindow: 25},
	}, tinySurvey(16), NewChannelNet(9, 0, 0))
	healthy.Run()
	if healthy.Degraded() {
		t.Fatal("fully online fleet reported degraded")
	}
	if _, err := healthy.Feed(0); err != nil {
		t.Fatalf("healthy feed refused: %v", err)
	}
}
