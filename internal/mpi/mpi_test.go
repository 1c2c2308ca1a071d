package mpi

import (
	"errors"
	"testing"
)

func TestPingPong(t *testing.T) {
	err := RunWorld(NewWorld(2), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
			back := c.Recv(1, 8)
			if len(back) != 3 || back[0] != 2 {
				return errors.New("wrong echo")
			}
		} else {
			data := c.Recv(0, 7)
			for i := range data {
				data[i] *= 2
			}
			c.Send(0, 8, data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := RunWorld(NewWorld(2), func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 1, buf)
			buf[0] = -1 // must not corrupt the in-flight message
		} else {
			if got := c.Recv(0, 1); got[0] != 42 {
				return errors.New("payload aliased sender buffer")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	// Out-of-order delivery across tags must be handled by stashing.
	err := RunWorld(NewWorld(2), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 2, []float64{2})
			c.Send(1, 1, []float64{1})
		} else {
			first := c.Recv(0, 1) // arrives second, stashes tag-2
			second := c.Recv(0, 2)
			if first[0] != 1 || second[0] != 2 {
				return errors.New("tag matching broken")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestByteAccounting(t *testing.T) {
	w := NewWorld(2)
	err := RunWorld(w, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]float64, 100)) // 800 bytes
		} else {
			c.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.BytesSent(); got != 800 {
		t.Fatalf("BytesSent = %d", got)
	}
	if got := w.RankBytesSent(0); got != 800 {
		t.Fatalf("rank 0 sent %d", got)
	}
	if got := w.RankBytesSent(1); got != 0 {
		t.Fatalf("rank 1 sent %d", got)
	}
	if w.MessagesSent() != 1 {
		t.Fatalf("messages = %d", w.MessagesSent())
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := errors.New("rank failed")
	err := RunWorld(NewWorld(3), func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestAnySource(t *testing.T) {
	err := RunWorld(NewWorld(3), func(c *Comm) error {
		if c.Rank() == 0 {
			got1 := c.Recv(-1, 5)
			got2 := c.Recv(-1, 5)
			if got1[0]+got2[0] != 3 { // 1 + 2 in either order
				return errors.New("any-source recv wrong")
			}
		} else {
			c.Send(0, 5, []float64{float64(c.Rank())})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
