package epochpub_test

import (
	"testing"

	"condisc/internal/analysis/analysistest"
	"condisc/internal/analysis/epochpub"
)

func TestEpochpub(t *testing.T) {
	analysistest.Run(t, "testdata/src/epochpubdata", "condisc/exemplar/epochpubdata", epochpub.Analyzer)
}
