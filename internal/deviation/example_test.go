package deviation_test

import (
	"fmt"

	"acobe/internal/cert"
	"acobe/internal/deviation"
	"acobe/internal/features"
)

// ExampleComputeField shows the paper's deviation measure over a small
// table: two users share a quiet thumb-drive history (almost no connects
// in ten days). On day 10 one connects nine times and saturates at the
// clamp Δ=3; the other has a usual day and stays near zero.
func ExampleComputeField() {
	cfg := deviation.DefaultConfig() // Δ=3, ε=1 count
	cfg.Window = 11                  // ω: ten days of history before day 10
	tbl, err := features.NewTable([]string{"burst", "usual"}, []string{"device-connects"}, 1, 0, 10)
	if err != nil {
		panic(err)
	}
	history := []float64{0, 0, 1, 0, 0, 0, 2, 0, 0, 0}
	for u := range tbl.Users() {
		for d, m := range history {
			tbl.Add(u, 0, 0, cert.Day(d), m)
		}
	}
	tbl.Add(0, 0, 0, 10, 9)

	field, err := deviation.ComputeField(tbl, cfg)
	if err != nil {
		panic(err)
	}
	for u, id := range tbl.Users() {
		fmt.Printf("%s: σ=%.2f\n", id, field.Sigma(u, 0, 0, 10))
	}
	// Output:
	// burst: σ=3.00
	// usual: σ=-0.30
}

// ExampleWeight shows the TF-style feature weight: consistent features
// keep full weight, chaotic ones are scaled down.
func ExampleWeight() {
	fmt.Printf("std=1:  w=%.2f\n", deviation.Weight(1))
	fmt.Printf("std=4:  w=%.2f\n", deviation.Weight(4))
	fmt.Printf("std=16: w=%.2f\n", deviation.Weight(16))
	// Output:
	// std=1:  w=1.00
	// std=4:  w=0.50
	// std=16: w=0.25
}
