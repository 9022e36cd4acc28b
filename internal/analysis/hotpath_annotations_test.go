package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The 0-alloc perf guards (#2 block sampling, #7 CH/HL point-query
// kernels and the result cache, #8 zero-allocation serving) and the
// //dpvet:hotpath static guard must name the same set of functions: a
// function benched to 0 allocs/op but not annotated can regress between
// bench runs, and an annotation with no bench behind it overstates the
// guarantee. This test greps both sides.

// guardedFunctions maps each annotated source file to the functions the
// perf guards hold allocation-free. Adding a hot function to a guard
// means adding it here AND annotating it; dropping one means the reverse.
var guardedFunctions = map[string][]string{
	"internal/dp/noise.go": {
		// guard #2: BenchmarkFillLaplace/(crypto|seeded)
		"laplaceFromRand", "uniform", "laplace", "FillLaplace",
	},
	"internal/graph/index/cache.go": {
		// guard #7: BenchmarkPairCache/(hit|miss)
		"locate", "Get", "read", "Put",
	},
	"internal/graph/index/ch.go": {
		// guard #7: BenchmarkIndexDistance/ch
		"Distance",
	},
	"internal/graph/index/hl.go": {
		// guard #7: BenchmarkIndexDistance/(hl|hl-depot)
		"Distance", "load",
	},
	"internal/graph/index/search.go": {
		// guard #7: the searchState kernel under BenchmarkIndexDistance/ch
		"begin", "distance", "settled", "update",
		"empty", "minKey", "pop", "siftUp", "siftDown",
	},
	"internal/serve/fastjson.go": {
		// guard #8: TestServeDistanceZeroAlloc / TestServeDistancesZeroAlloc
		"appendJSONFloat", "appendPairAnswer", "parseQueryPair",
		"isJSONSpace", "skipJSONSpace", "isTextSpace", "skipTextSpace",
		"parseInt", "parseObject", "parseTuple", "parsePointBody",
		"parsePairs", "parseArray", "parseTextLine", "ReadBodyLimit",
	},
}

// guardMarkers are the bench/test names the guard script must still run;
// if one is renamed the mapping above needs re-auditing.
var guardMarkers = []string{
	"BenchmarkFillLaplace/(crypto|seeded)",
	"BenchmarkIndexDistance",
	"BenchmarkIndexDistance$/^(ch|hl|hl-depot)$",
	"BenchmarkPairCache",
	"TestServeDistanceZeroAlloc|TestServeDistancesZeroAlloc",
}

var annotatedFuncRE = regexp.MustCompile(`(?m)^//dpvet:hotpath\nfunc (?:\([^)]*\) )?(\w+)\(`)

func TestHotpathAnnotationsMatchPerfGuards(t *testing.T) {
	root := filepath.Join("..", "..")

	script, err := os.ReadFile(filepath.Join(root, "scripts", "check_perf_guards.sh"))
	if err != nil {
		t.Fatalf("reading perf guard script: %v", err)
	}
	for _, marker := range guardMarkers {
		if !strings.Contains(string(script), marker) {
			t.Errorf("perf guard script no longer runs %q; re-audit the hotpath annotation mapping", marker)
		}
	}

	for file, want := range guardedFunctions {
		src, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Errorf("reading %s: %v", file, err)
			continue
		}
		annotated := make(map[string]bool)
		for _, m := range annotatedFuncRE.FindAllStringSubmatch(string(src), -1) {
			annotated[m[1]] = true
		}
		for _, fn := range want {
			if !annotated[fn] {
				t.Errorf("%s: %s is covered by a 0-alloc perf guard but lacks a //dpvet:hotpath annotation", file, fn)
			}
		}
		if len(annotated) != len(want) {
			for fn := range annotated {
				found := false
				for _, w := range want {
					if w == fn {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: %s is annotated //dpvet:hotpath but not named by any perf guard mapping; add it to guardedFunctions with its guard", file, fn)
				}
			}
		}
	}
}
