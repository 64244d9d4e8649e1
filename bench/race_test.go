//go:build race

package main

// smokeSeconds is longer under the race detector, which slows a scan
// enough that 2 s no longer yield the 200 samples a p95 needs.
const smokeSeconds = 12
