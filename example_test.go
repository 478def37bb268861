package whatsup_test

import (
	"fmt"

	"whatsup"
)

// ExampleNewSimulation runs a miniature WhatsUp fleet on the survey workload
// and reports whether the dissemination produced sensible quality metrics.
func ExampleNewSimulation() {
	ds := whatsup.SurveyDataset(1, 0.05)
	sim := whatsup.NewSimulation(ds, whatsup.SimulationConfig{
		Node: whatsup.Config{FLike: 5},
		Seed: 1,
	})
	sim.Run()
	r := sim.Results()
	fmt.Println("delivered something:", r.Messages > 0)
	fmt.Println("quality in range:", r.F1 > 0 && r.F1 <= 1)
	// Output:
	// delivered something: true
	// quality in range: true
}

// ExampleOpinionFunc adapts an ordinary function as the like/dislike source
// for a node.
func ExampleOpinionFunc() {
	evenLover := whatsup.OpinionFunc(func(_ whatsup.NodeID, item whatsup.ItemID) bool {
		return item%2 == 0
	})
	node := whatsup.NewNode(1, whatsup.Config{}, evenLover, 42)
	fmt.Println("node id:", node.ID())
	fmt.Println("default fanout:", node.Config().FLike)
	// Output:
	// node id: 1
	// default fanout: 10
}
