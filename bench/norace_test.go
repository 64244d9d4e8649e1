//go:build !race

package main

// smokeSeconds is the timed phase of TestSmoke: twice what the 200 samples a
// p95 needs take the slowest workload on a calm machine.
const smokeSeconds = 2
