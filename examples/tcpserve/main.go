// TCP serving cluster: the socket example, serving a vector workload. A
// frontend and k resident nodes — each holding a k-d-tree-indexed shard of
// d-dimensional points — mesh up over loopback sockets as a star around the
// seed's leader, and then answer a stream of queries through the same RemoteCluster client
// a remote process would use. The stream is issued twice: one query per BSP
// epoch, then in KNNBatch batches that run as lockstep sub-programs of one
// epoch per batch, so the wall-clock delta printed at the end is pure
// amortized frame/syscall/round overhead; rendezvous and mesh are paid
// once, before the first query, and the leader costs nothing.
package main

import (
	"fmt"
	"log"
	"time"

	"distknn"
	"distknn/internal/xrand"
)

func main() {
	const (
		k       = 4
		perNode = 20_000
		dim     = 8
		l       = 10
		seed    = 2026
		queries = 256
		batch   = 32
	)

	// Each node builds its shard from the shared seed at join time —
	// exactly like a real deployment, where data lives with the node.
	shards := distknn.UniformVectorShards(seed, perNode, dim)
	srv, err := distknn.ServeTypedLocalOptions(distknn.VectorPoints(), k, seed, shards, distknn.NodeOptions{}, distknn.FrontendOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving cluster up: %d nodes x %d %d-dim points (k-d-tree-indexed), leader=machine %d\n",
		k, perNode, dim, srv.Leader())

	rc, err := distknn.DialTypedClusterOptions(distknn.VectorPoints(), srv.Addr(), distknn.ClientOptions{})
	if err != nil {
		srv.Close()
		log.Fatal(err)
	}

	queryAt := func(i int) distknn.Vector {
		rng := xrand.NewStream(seed, 1<<40+uint64(i))
		v := make(distknn.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		return v
	}

	// One query per epoch.
	var rounds int64
	start := time.Now()
	for i := 0; i < queries; i++ {
		_, stats, err := rc.KNN(queryAt(i), l)
		if err != nil {
			log.Fatalf("query %d: %v", i, err)
		}
		rounds += int64(stats.Rounds)
	}
	soloWall := time.Since(start)
	fmt.Printf("%d solo queries: %v (%.1f rounds/query, election: 0 per query)\n",
		queries, soloWall.Round(time.Millisecond), float64(rounds)/float64(queries))

	// The same stream in lockstep batches — bit-identical answers.
	rounds = 0
	start = time.Now()
	for i := 0; i < queries; i += batch {
		n := batch
		if i+n > queries {
			n = queries - i
		}
		qs := make([]distknn.Vector, n)
		for j := range qs {
			qs[j] = queryAt(i + j)
		}
		_, stats, err := rc.KNNBatch(qs, l)
		if err != nil {
			log.Fatalf("batch at %d: %v", i, err)
		}
		rounds += int64(stats.Rounds)
	}
	batchWall := time.Since(start)
	fmt.Printf("%d queries in batches of %d: %v (%.1f rounds/query, %.1fx faster)\n",
		queries, batch, batchWall.Round(time.Millisecond),
		float64(rounds)/float64(queries), soloWall.Seconds()/batchWall.Seconds())

	// Labels cycle 0..3 by global index, so classification has a target.
	label, _, err := rc.Classify(queryAt(0), l)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bonus classification of query 0: majority label=%g\n", label)

	rc.Close()
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("clean shutdown")
}
