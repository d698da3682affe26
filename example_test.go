package distknn_test

import (
	"fmt"

	"distknn"
)

// The ten-point toy dataset makes the distributed machinery fully
// deterministic and the outputs human-checkable.

func ExampleCluster_KNN() {
	values := []uint64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cluster, err := distknn.NewScalarCluster(values, nil, distknn.Options{Machines: 3, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	neighbors, _, err := cluster.KNN(distknn.Scalar(27), 3)
	if err != nil {
		panic(err)
	}
	for _, nb := range neighbors {
		fmt.Println("distance", nb.Key.Dist)
	}
	// Output:
	// distance 3
	// distance 7
	// distance 13
}

func ExampleCluster_Classify() {
	// Values below 50 carry label 1, the rest label 2.
	values := []uint64{10, 20, 30, 40, 60, 70, 80, 90}
	labels := []float64{1, 1, 1, 1, 2, 2, 2, 2}
	cluster, err := distknn.NewScalarCluster(values, labels, distknn.Options{Machines: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	label, _, err := cluster.Classify(distknn.Scalar(25), 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("label", label)
	// Output:
	// label 1
}

func ExampleRemoteCluster_KNN() {
	// A real serving cluster over loopback TCP: a frontend plus two
	// resident nodes, each holding half of the ten-point dataset. The
	// remote client then asks the same query as ExampleCluster_KNN and
	// gets the same exact answer — over sockets, as one BSP epoch on the
	// resident mesh.
	shards := func(id, k int) (distknn.Shard[distknn.Scalar], error) {
		all := []distknn.Scalar{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
		per := len(all) / k
		return distknn.Shard[distknn.Scalar]{
			Points:  all[id*per : (id+1)*per],
			FirstID: uint64(id*per) + 1,
		}, nil
	}
	srv, err := distknn.ServeTypedLocalOptions(distknn.ScalarPoints(), 2, 1, shards, distknn.NodeOptions{}, distknn.FrontendOptions{})
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	rc, err := distknn.DialTypedClusterOptions(distknn.ScalarPoints(), srv.Addr(), distknn.ClientOptions{})
	if err != nil {
		panic(err)
	}
	defer rc.Close()
	neighbors, _, err := rc.KNN(distknn.Scalar(27), 3)
	if err != nil {
		panic(err)
	}
	for _, nb := range neighbors {
		fmt.Println("distance", nb.Key.Dist)
	}
	// Output:
	// distance 3
	// distance 7
	// distance 13
}

func ExampleSelectRank() {
	values := []uint64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	cluster, err := distknn.NewScalarCluster(values, nil, distknn.Options{Machines: 3, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	median, _, err := distknn.Median(cluster)
	if err != nil {
		panic(err)
	}
	third, _, err := distknn.SelectRank(cluster, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("median", median)
	fmt.Println("3rd smallest", third)
	// Output:
	// median 5
	// 3rd smallest 3
}
