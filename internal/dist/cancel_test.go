package dist

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// cancelWhen is a context canceled by the first Err call that finds when
// true: a test's way to cancel at a point inside a run.
type cancelWhen struct {
	context.Context
	cancel func()
	when   func() bool
}

func (c *cancelWhen) Err() error {
	if c.when() {
		c.cancel()
	}
	return c.Context.Err()
}

// TestCancelInsideRound cancels a 4-rank device run once its first read
// exchange is on the fabric: the round stops before its shard assembly,
// the error wraps context.Canceled and names that phase, and no later
// phase records an exchange.
func TestCancelInsideRound(t *testing.T) {
	cfg := testDistConfig(4).withDefaults()
	rt, err := newRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	exchanged := func() bool {
		for _, st := range rt.fabric.Stages() {
			if strings.HasPrefix(st.Stage, "read exchange") {
				return true
			}
		}
		return false
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, _, err := rt.run(&cancelWhen{Context: ctx, cancel: cancel, when: exchanged}, buildPairs(t))
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("run returned %v, %v; want context.Canceled", res, err)
	}
	if !strings.Contains(err.Error(), "shard assembly") {
		t.Errorf("error %q does not name the phase it stopped before", err)
	}
	stages := rt.fabric.Stages()
	if last := stages[len(stages)-1].Stage; last != "read exchange k=21" {
		t.Errorf("last exchange %q, want the first read exchange", last)
	}
}
