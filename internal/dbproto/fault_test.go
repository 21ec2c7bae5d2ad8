package dbproto

import (
	"errors"
	"testing"

	"repro/internal/fault"
	rel "repro/internal/relational"
)

func TestInjectedFaultAnswers503(t *testing.T) {
	remote, _, c := startRemote(t)
	_ = c.Insert("Orders", sampleRelation())
	plan := fault.NewPlan(fault.Config{Seed: 3, Rate: 1, Kinds: []fault.Kind{fault.KindHTTP500}})
	remote.SetFaultPlan(plan)
	_, err := c.Query("Orders", nil)
	var he *fault.HTTPStatusError
	if !errors.As(err, &he) || he.Status != 503 {
		t.Fatalf("err = %v, want wrapped HTTP 503", err)
	}
	if !fault.IsTransient(err) {
		t.Error("injected 503 should classify as transient")
	}
	if plan.Injections() == 0 {
		t.Error("plan recorded no injections")
	}
	remote.SetFaultPlan(nil)
	if _, err := c.Query("Orders", nil); err != nil {
		t.Fatalf("after plan removal: %v", err)
	}
}

func TestStoreFaultMapsTo503(t *testing.T) {
	// A transient store fault raised by the relational call hook must cross
	// the protocol boundary as a 503, not a 400 — remote clients need to
	// classify it as retryable.
	srv := rel.NewServer(0)
	db := srv.CreateInstance("CDB")
	db.MustExec(`CREATE TABLE T (K BIGINT NOT NULL, PRIMARY KEY (K))`)
	remote, err := Serve(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c := NewClient(remote.BaseURL(), "CDB")
	srv.SetCallHook(func(caller, instance, op, table string) error {
		return &fault.TransientError{Endpoint: "es/" + instance, Msg: "injected store fault"}
	})
	_, qerr := c.Query("T", nil)
	var he *fault.HTTPStatusError
	if !errors.As(qerr, &he) || he.Status != 503 {
		t.Fatalf("store fault surfaced as %v, want HTTP 503", qerr)
	}
	if !fault.IsTransient(qerr) {
		t.Error("store fault should classify as transient over the wire")
	}
	// Application errors still answer 400 and stay non-transient.
	srv.SetCallHook(nil)
	_, qerr = c.Query("NoSuchTable", nil)
	if !errors.As(qerr, &he) || he.Status != 400 {
		t.Fatalf("application error surfaced as %v, want HTTP 400", qerr)
	}
	if fault.IsTransient(qerr) {
		t.Error("application error must not classify as transient")
	}
}

func TestInjectedResetIsTransient(t *testing.T) {
	remote, _, c := startRemote(t)
	_ = c.Insert("Orders", sampleRelation())
	remote.SetFaultPlan(fault.NewPlan(fault.Config{Seed: 3, Rate: 1, Kinds: []fault.Kind{fault.KindReset}}))
	_, err := c.Query("Orders", nil)
	if err == nil {
		t.Fatal("dropped connection did not surface")
	}
	if !fault.IsTransient(err) {
		t.Errorf("dropped connection should classify as transient: %v", err)
	}
}
