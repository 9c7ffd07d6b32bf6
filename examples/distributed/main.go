// distributed: the Section 5.2 pipeline — neighbor-sample a large
// graph, reorder each sample offline, and run SGC across a pool of
// simulated GPU workers, comparing the SPTC path against the CSR
// baseline (a Table-6 column).
package main

import (
	"fmt"
	"log"

	sogre "repro"
)

func main() {
	// A large community-structured graph standing in for an OGBN-scale
	// dataset (co-purchase / citation style).
	nClusters := 50
	sizes := make([]int, nClusters)
	for i := range sizes {
		sizes[i] = 400
	}
	g, _ := sogre.GenerateSBM(sizes, 0.02, 0.0002, 9)
	fmt.Printf("large graph: n=%d, %d edges\n", g.N(), g.NumUndirectedEdges())

	res, err := sogre.RunDistributed("sbm-20k", g, sogre.PipelineConfig{
		Workers:  4, // the paper's four A100s
		Samples:  8,
		Features: 128,
		Classes:  40,
		Sampler:  sogre.SamplerConfig{Seeds: 64, Fanout: []int{8, 4}, Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("samples: %d (avg %d vertices each)\n", res.Samples, int(res.AvgSampleSize))
	fmt.Printf("conforming samples: %d/%d, fallbacks: %d\n", res.ConformedCount, res.Samples, res.FallbackCount)
	fmt.Printf("aggregation (LYR) speedup: %.2fx\n", res.LYRSpeedup)
	fmt.Printf("end-to-end  (ALL) speedup: %.2fx\n", res.ALLSpeedup)
}
