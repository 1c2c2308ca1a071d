package dfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/obs"
)

func TestCorruptReplicaHealedOnRead(t *testing.T) {
	fs := New(4, 3)
	payload := bytes.Repeat([]byte("matrix"), 100)
	fs.Write("f", payload)

	if err := fs.Corrupt("f", 1); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read served corrupt data")
	}
	if fs.Stats().CorruptionsHealed != 1 {
		t.Fatalf("healed = %d", fs.Stats().CorruptionsHealed)
	}
	// Healing is durable: subsequent reads detect nothing.
	if _, err := fs.Read("f"); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().CorruptionsHealed != 1 {
		t.Fatal("replica not actually healed")
	}
}

func TestAllReplicasCorrupt(t *testing.T) {
	fs := New(2, 2)
	fs.Write("f", []byte("abcdef"))
	for r := 0; r < 2; r++ {
		if err := fs.Corrupt("f", r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Read("f"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

func TestCorruptErrors(t *testing.T) {
	fs := New(2, 2)
	if err := fs.Corrupt("missing", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	fs.Write("f", []byte("x"))
	if err := fs.Corrupt("f", 5); err == nil {
		t.Fatal("replica out of range accepted")
	}
	if err := fs.Corrupt("f", -1); err == nil {
		t.Fatal("negative replica accepted")
	}
	fs.Write("empty", nil)
	if err := fs.Corrupt("empty", 0); err == nil {
		t.Fatal("empty file corruption accepted")
	}
}

func TestHealingChargesTransfer(t *testing.T) {
	fs := New(3, 3)
	fs.Write("f", make([]byte, 500))
	fs.ResetStats()
	if err := fs.Corrupt("f", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("f"); err != nil {
		t.Fatal(err)
	}
	if tr := fs.Stats().BytesTransferred; tr != 500 {
		t.Fatalf("healing transferred %d bytes, want 500", tr)
	}
}

func TestRewriteClearsCorruption(t *testing.T) {
	fs := New(2, 2)
	fs.Write("f", []byte("one"))
	if err := fs.Corrupt("f", 0); err != nil {
		t.Fatal(err)
	}
	fs.Write("f", []byte("two"))
	got, err := fs.Read("f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Fatalf("got %q", got)
	}
	if fs.Stats().CorruptionsHealed != 0 {
		t.Fatal("rewrite should not count as healing")
	}
}

// TestHealingMirrorsTransferMetric pins the registry mirror of the healing
// copy: after a corrupt read, dfs.bytes_transferred must equal
// Stats().BytesTransferred, replication and healing bytes included.
func TestHealingMirrorsTransferMetric(t *testing.T) {
	fs := New(3, 3)
	reg := obs.NewRegistry()
	fs.SetMetrics(reg)
	fs.Write("f", make([]byte, 500))
	if err := fs.Corrupt("f", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("f"); err != nil {
		t.Fatal(err)
	}
	want := fs.Stats().BytesTransferred
	if want != 2*500+500 {
		t.Fatalf("Stats().BytesTransferred = %d, want 1500 (two replica copies + one heal)", want)
	}
	if got := reg.Counter("dfs.bytes_transferred").Value(); got != want {
		t.Fatalf("dfs.bytes_transferred = %d, Stats().BytesTransferred = %d", got, want)
	}
}
