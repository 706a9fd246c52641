package opcuastudy_test

import (
	"context"
	"fmt"
	"log"

	opcuastudy "repro"
)

// ExampleRunCampaign runs the paper's final measurement wave
// (2020-08-30) against the simulated Internet and prints its headline
// assessment. Test-size keys make it finish in seconds; they also make
// every server fail the key-length check, so "deficient" is all of them.
func ExampleRunCampaign() {
	c, err := opcuastudy.RunCampaign(context.Background(), opcuastudy.CampaignConfig{
		Seed:         2020,
		Waves:        []int{7},
		TestKeySizes: true,
		NoiseProb:    0.001,
	})
	if err != nil {
		log.Fatal(err)
	}
	w := c.LastWave()
	fmt.Printf("OPC UA hosts:    %d (%d servers + %d discovery)\n", len(w.Records), len(w.Servers), w.Discovery)
	fmt.Printf("None only:       %d\n", w.NoneOnly)
	fmt.Printf("deprecated best: %d\n", w.DeprecatedBest)
	fmt.Printf("anonymous:       %d\n", w.AnonSCOK)
	fmt.Printf("accessible:      %d\n", w.Accessible)
	fmt.Printf("deficient:       %d\n", w.Deficient)
	// Output:
	// OPC UA hosts:    1921 (1114 servers + 807 discovery)
	// None only:       270
	// deprecated best: 280
	// anonymous:       563
	// accessible:      493
	// deficient:       1114
}
