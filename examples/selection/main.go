// Selection: the paper's Algorithm 1 used directly as a distributed
// subroutine ("we believe that our algorithm can be used as a subroutine
// for many other problems" — Section 4). This example computes a running
// distributed median over k machines and compares the three selection
// protocols' costs on the same instance.
package main

import (
	"fmt"
	"log"

	"distknn/internal/dsel"
	"distknn/internal/keys"
	"distknn/internal/kmachine"
	"distknn/internal/xrand"
)

func main() {
	const (
		k          = 10
		perMachine = 50_000
	)
	// Each machine holds its own shard of measurements (e.g. sensor
	// readings); we want the exact global median without centralizing.
	locals := make([][]keys.Key, k)
	for i := 0; i < k; i++ {
		rng := xrand.NewStream(99, uint64(i))
		shard := make([]keys.Key, perMachine)
		for j := range shard {
			shard[j] = keys.Key{
				Dist: rng.Uint64N(1 << 40),
				ID:   uint64(i*perMachine+j) + 1,
			}
		}
		locals[i] = shard
	}
	rank := k * perMachine / 2

	protos := []struct {
		name string
		run  dsel.Protocol
	}{
		{"algorithm-1 (randomized)", dsel.FindLSmallest},
		{"saukas-song (deterministic)", dsel.SaukasSong},
		{"binary-search (domain)", dsel.BinarySearch},
	}

	fmt.Printf("distributed median of %d values over %d machines (rank %d)\n\n",
		k*perMachine, k, rank)
	for _, p := range protos {
		res, met, err := dsel.Run(kmachine.Config{K: k, Seed: 5}, p.run, 0, locals, rank, dsel.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-28s median=%-14d rounds=%-5d messages=%-6d iterations=%d\n",
			p.name, res[0].Boundary.Dist, met.Rounds, met.Messages, res[0].Iterations)
	}
}
