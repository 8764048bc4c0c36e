// Package membership is the bookkeeping of elastic worlds: ranks join, leave,
// and are replaced while training runs.
//
// Membership is versioned by a monotonically increasing epoch, and each epoch
// has an immutable member set (a View). Next computes epoch N+1's view from
// epoch N's and the requested changes; the world that owns the view runs the
// transition itself (drain, build the next transport generation, hand model
// state to the joiners in memory, commit).
//
// Two identities coexist on purpose:
//
//   - RankID is stable: assigned once when a member first joins and never
//     reused. Health views and membership verbs speak RankIDs.
//   - The dense rank index (a member's position in the epoch's sorted member
//     list) is per-epoch wire state: transports, communicators, and
//     collective schedules are built over [0, Size) indices, and a member's
//     index may change across epochs when earlier members leave.
package membership

import (
	"errors"
	"fmt"
	"sort"
)

// RankID is the stable identity of a member, distinct from its dense
// per-epoch rank index: assigned when the member first joins, never reused,
// and constant across every epoch the member belongs to.
type RankID int64

// Member is one participant of an epoch: its stable identity plus the
// (possibly empty) transport address it announced when joining.
type Member struct {
	ID   RankID
	Addr string
}

// View is one epoch's immutable membership: the epoch counter and the member
// set in dense rank-index order (Members[i] holds rank index i).
type View struct {
	Epoch   uint64
	Members []Member
}

// Size returns the number of members.
func (v View) Size() int { return len(v.Members) }

// IndexOf returns the dense rank index of the member with the given stable
// ID, or -1 when the ID is not part of this epoch.
func (v View) IndexOf(id RankID) int {
	for i, m := range v.Members {
		if m.ID == id {
			return i
		}
	}
	return -1
}

// ChangeKind enumerates the membership verbs.
type ChangeKind int

const (
	// ChangeJoin adds a fresh member.
	ChangeJoin ChangeKind = iota
	// ChangeLeave removes a member.
	ChangeLeave
	// ChangeReplace removes a (typically dead) member and adds a fresh one
	// in the same transition, the crash-recovery verb.
	ChangeReplace
)

// String names the change kind.
func (k ChangeKind) String() string {
	switch k {
	case ChangeJoin:
		return "join"
	case ChangeLeave:
		return "leave"
	case ChangeReplace:
		return "replace"
	default:
		return fmt.Sprintf("change(%d)", int(k))
	}
}

// Change is one requested membership edit.
type Change struct {
	Kind ChangeKind
	// Dead is the member being removed (Leave and Replace).
	Dead RankID
	// Addr is the announced address of the incoming member (Join, Replace).
	Addr string
}

// Errors of the membership verbs.
var (
	// ErrNotMember is returned for verbs naming a RankID outside the current
	// epoch.
	ErrNotMember = errors.New("membership: rank is not a member of the current epoch")
	// ErrEmptyWorld is returned by a change that would leave the epoch with
	// no members.
	ErrEmptyWorld = errors.New("membership: change would leave an empty world")
)

// Next validates the requested changes against the current view and returns
// the view of epoch cur.Epoch+1 together with the stable IDs minted for the
// incoming members, in change order. Joiners get consecutive IDs starting at
// nextID; the caller advances its own counter past them so an ID is never
// reused, even when the transition is later abandoned. Members of the new
// view are sorted by stable ID, so dense indices are the by-ID order of the
// new member set. cur is not modified.
func Next(cur View, nextID RankID, changes []Change) (View, []RankID, error) {
	if len(changes) == 0 {
		return View{}, nil, errors.New("membership: empty change set")
	}
	next := append([]Member(nil), cur.Members...)
	var joined []RankID
	remove := func(id RankID) error {
		for i, m := range next {
			if m.ID == id {
				next = append(next[:i], next[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("%w: id %d", ErrNotMember, id)
	}
	admit := func(addr string) {
		next = append(next, Member{ID: nextID, Addr: addr})
		joined = append(joined, nextID)
		nextID++
	}
	for _, ch := range changes {
		switch ch.Kind {
		case ChangeLeave:
			if err := remove(ch.Dead); err != nil {
				return View{}, nil, err
			}
		case ChangeReplace:
			if err := remove(ch.Dead); err != nil {
				return View{}, nil, err
			}
			admit(ch.Addr)
		case ChangeJoin:
			admit(ch.Addr)
		default:
			return View{}, nil, fmt.Errorf("membership: unknown change kind %v", ch.Kind)
		}
	}
	if len(next) == 0 {
		return View{}, nil, ErrEmptyWorld
	}
	sort.Slice(next, func(i, j int) bool { return next[i].ID < next[j].ID })
	return View{Epoch: cur.Epoch + 1, Members: next}, joined, nil
}
