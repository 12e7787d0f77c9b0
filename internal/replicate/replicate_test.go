package replicate

import (
	"bytes"
	"testing"
)

func TestNeedAcks(t *testing.T) {
	cases := []struct {
		pol  Policy
		want int
	}{
		{Policy{K: 0}, 1},
		{Policy{K: 1}, 1},
		{Policy{K: 3}, 2}, // majority of 3
		{Policy{K: 4}, 3}, // majority of 4
		{Policy{K: 3, Quorum: 1}, 1},
		{Policy{K: 3, Quorum: 3}, 3},
		{Policy{K: 3, Quorum: 9}, 3}, // clamped to K
	}
	for _, c := range cases {
		if got := c.pol.NeedAcks(); got != c.want {
			t.Errorf("NeedAcks(%+v) = %d, want %d", c.pol, got, c.want)
		}
	}
}

func TestReconstructQuorum(t *testing.T) {
	cases := []struct {
		pol  Policy
		want int
	}{
		{Policy{}, 0},     // replication off
		{Policy{K: 3}, 1}, // full copies: one holder suffices
		{Policy{K: 5}, 1},
	}
	for _, c := range cases {
		if got := c.pol.ReconstructQuorum(); got != c.want {
			t.Errorf("ReconstructQuorum(%+v) = %d, want %d", c.pol, got, c.want)
		}
	}
}

func TestCopyRoundTrip(t *testing.T) {
	pol := Policy{K: 3}
	val := []byte("hello replica")
	pls := Payloads(pol, val)
	if len(pls) != 2 {
		t.Fatalf("got %d payloads, want 2", len(pls))
	}
	for i := range pls {
		got, ok := Reconstruct([][]byte{pls[i]})
		if !ok || !bytes.Equal(got, val) {
			t.Fatalf("payload %d did not reconstruct alone", i)
		}
	}
}

func TestReconstructSkipsGarbage(t *testing.T) {
	val := []byte("payload")
	pls := [][]byte{nil, {0xFF, 1, 2}, EncodeCopy(val)}
	got, ok := Reconstruct(pls)
	if !ok || !bytes.Equal(got, val) {
		t.Fatal("garbage payloads broke reconstruction")
	}
	if _, ok := Reconstruct([][]byte{nil, {0x7F}}); ok {
		t.Fatal("reconstructed from garbage alone")
	}
}
