package main

import (
	"strings"
	"testing"
)

// The registry allocation gap: repeats fold to their minimum, the gap is
// divided over the 16 barriers a row builds, and the gate is skipped only
// when no BenchmarkNew row is in the input.
func TestAllocGates(t *testing.T) {
	for _, tc := range []struct {
		name, input string
		want        bool
	}{
		{"within", `
BenchmarkNew/groups16x4/registry-2   300  210000 ns/op  113900 B/op  900 allocs/op
BenchmarkNew/groups16x4/registry-2   300  200000 ns/op  113900 B/op  846 allocs/op
BenchmarkNew/groups16x4/bare-2       300  200000 ns/op  109100 B/op  833 allocs/op
`, true},
		{"exactly 4 per barrier", `
BenchmarkNew/groups16x4/registry  300  200000 ns/op  897 allocs/op
BenchmarkNew/groups16x4/bare      300  200000 ns/op  833 allocs/op
`, true},
		{"per-series registration", `
BenchmarkNew/groups16x4/registry-2   300  500000 ns/op  215300 B/op  1931 allocs/op
BenchmarkNew/groups16x4/bare-2       300  200000 ns/op  116600 B/op  929 allocs/op
`, false},
		{"one row only", `
BenchmarkNew/groups16x4/registry-2   300  172000 ns/op  113900 B/op  846 allocs/op
`, false},
		{"family without the pair", `
BenchmarkNew/ring/n=32-2             300   28700 ns/op   20100 B/op  193 allocs/op
BenchmarkNew/groups16x4/labelled-2   300  172000 ns/op  113900 B/op  846 allocs/op
`, false},
		{"family absent", `
BenchmarkAwaitChannel/n=32-2        2000   45000 ns/op       0 B/op    0 allocs/op
`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			measured, err := parseBench(strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			if got := allocGates(measured); got != tc.want {
				t.Errorf("allocGates = %v, want %v", got, tc.want)
			}
		})
	}
}
