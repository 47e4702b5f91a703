package cache_test

import (
	"fmt"

	"hetsched/internal/cache"
)

func ExampleParseConfig() {
	cfg, err := cache.ParseConfig("8KB_4W_64B")
	if err != nil {
		panic(err)
	}
	fmt.Println(cfg, "sets:", cfg.Sets())
	// Output: 8KB_4W_64B sets: 32
}

func ExampleDesignSpace() {
	space := cache.DesignSpace()
	fmt.Println(len(space), "configurations, first:", space[0], "last:", space[len(space)-1])
	// Output: 18 configurations, first: 2KB_1W_16B last: 8KB_4W_64B
}

func ExampleL1() {
	l1, err := cache.NewL1(cache.Config{SizeKB: 2, Ways: 1, LineBytes: 16})
	if err != nil {
		panic(err)
	}
	l1.Access(0x100, false) // cold miss
	l1.Access(0x104, false) // same line: hit
	s := l1.Stats()
	fmt.Printf("hits=%d misses=%d\n", s.Hits, s.Misses)
	// Output: hits=1 misses=1
}
