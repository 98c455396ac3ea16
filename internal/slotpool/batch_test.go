package slotpool

import (
	"context"
	"strings"
	"testing"
)

func TestLeaseBatchAccounting(t *testing.T) {
	s := newCore(t, 64, 4)
	p := MustNew(Config{Slots: 2}, s)
	defer p.Close()

	lb, err := p.LeaseBatch(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	// A batched lease is an ordinary slot lease.
	if lb.Thread() == nil {
		t.Fatal("batched lease has no thread")
	}
	ls, err := p.Lease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Leases != 2 || st.LeasesBatched != 1 || st.BatchedOps != 16 {
		t.Fatalf("stats: leases=%d batched=%d batched_ops=%d, want 2/1/16",
			st.Leases, st.LeasesBatched, st.BatchedOps)
	}
	lb.Release()
	ls.Release()
	if st := p.Stats(); st.Releases != 2 {
		t.Fatalf("releases = %d, want 2", st.Releases)
	}

	if _, err := p.LeaseBatch(context.Background(), 0); err == nil {
		t.Fatal("LeaseBatch(0) accepted")
	}
}

func TestLeaseBatchProm(t *testing.T) {
	s := newCore(t, 64, 4)
	p := MustNew(Config{Slots: 2}, s)
	defer p.Close()

	l, err := p.LeaseBatch(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	l2, err := p.Lease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	l2.Release()

	var sb strings.Builder
	if err := p.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"wfrc_slotpool_leases_batched_total 1",
		"wfrc_slotpool_leases_single_total 1",
		"wfrc_slotpool_batched_ops_total 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
}
