package membership

import (
	"errors"
	"testing"
)

// founding returns the epoch-0 view of a world of the given size: stable IDs
// 0..size-1 in rank order.
func founding(size int) View {
	members := make([]Member, size)
	for i := range members {
		members[i] = Member{ID: RankID(i)}
	}
	return View{Members: members}
}

func TestNextJoinAssignsFreshIDsAndDenseIndices(t *testing.T) {
	cur := founding(4)
	to, joined, err := Next(cur, 4, []Change{{Kind: ChangeJoin, Addr: "a"}, {Kind: ChangeJoin, Addr: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if to.Epoch != 1 || to.Size() != 6 {
		t.Fatalf("next view = %+v, want epoch 1 size 6", to)
	}
	if len(joined) != 2 || joined[0] != 4 || joined[1] != 5 {
		t.Fatalf("joined IDs = %v, want [4 5]", joined)
	}
	if got := to.IndexOf(4); got != 4 {
		t.Fatalf("joiner 4 dense index = %d, want 4", got)
	}
	if cur.Epoch != 0 || cur.Size() != 4 {
		t.Fatalf("Next modified the current view: %+v", cur)
	}
}

func TestNextReplaceReindexesSurvivors(t *testing.T) {
	to, _, err := Next(founding(4), 4, []Change{{Kind: ChangeReplace, Dead: 1, Addr: "new"}})
	if err != nil {
		t.Fatal(err)
	}
	// Members 0,2,3 survive; joiner gets ID 4. Dense order by stable ID:
	// 0->0, 2->1, 3->2, 4->3.
	wantIdx := map[RankID]int{0: 0, 2: 1, 3: 2, 4: 3}
	for id, want := range wantIdx {
		if got := to.IndexOf(id); got != want {
			t.Fatalf("IndexOf(%d) = %d, want %d", id, got, want)
		}
	}
	if to.IndexOf(1) != -1 {
		t.Fatal("dead member 1 still indexed in the next view")
	}
}

func TestNextMintsFromTheGivenID(t *testing.T) {
	// A counter the caller advanced past an abandoned transition's joiners is
	// honoured: burned IDs are not reused.
	_, joined, err := Next(founding(3), 4, []Change{{Kind: ChangeJoin}})
	if err != nil {
		t.Fatal(err)
	}
	if len(joined) != 1 || joined[0] != 4 {
		t.Fatalf("joiner IDs = %v, want [4]", joined)
	}
}

func TestLeaveLastMemberRejected(t *testing.T) {
	if _, _, err := Next(founding(1), 1, []Change{{Kind: ChangeLeave, Dead: 0}}); !errors.Is(err, ErrEmptyWorld) {
		t.Fatalf("err = %v, want ErrEmptyWorld", err)
	}
}

func TestLeaveUnknownRankRejected(t *testing.T) {
	if _, _, err := Next(founding(2), 2, []Change{{Kind: ChangeLeave, Dead: 9}}); !errors.Is(err, ErrNotMember) {
		t.Fatalf("err = %v, want ErrNotMember", err)
	}
}

func TestNextRejectsEmptyChangeSet(t *testing.T) {
	if _, _, err := Next(founding(2), 2, nil); err == nil {
		t.Fatal("an empty change set proposed a new epoch")
	}
}

func TestNextRejectsUnknownChangeKind(t *testing.T) {
	if _, _, err := Next(founding(2), 2, []Change{{Kind: ChangeKind(9)}}); err == nil {
		t.Fatal("an unknown change kind proposed a new epoch")
	}
}

func TestNextLeaveDoesNotAliasCurrentView(t *testing.T) {
	// Removing the first member shifts the rest of the slice down; the
	// caller's view must keep its own backing array.
	cur := founding(3)
	to, _, err := Next(cur, 3, []Change{{Kind: ChangeLeave, Dead: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if to.Size() != 2 || to.IndexOf(1) != 0 || to.IndexOf(2) != 1 {
		t.Fatalf("next view = %+v, want members 1,2 at ranks 0,1", to)
	}
	for i, m := range cur.Members {
		if m.ID != RankID(i) {
			t.Fatalf("Next rewrote the current view: Members = %+v", cur.Members)
		}
	}
}

func TestNextRemovingOneMemberTwiceRejected(t *testing.T) {
	// A member removed earlier in the same change set is no longer a member.
	_, _, err := Next(founding(3), 3, []Change{
		{Kind: ChangeLeave, Dead: 1},
		{Kind: ChangeReplace, Dead: 1, Addr: "again"},
	})
	if !errors.Is(err, ErrNotMember) {
		t.Fatalf("err = %v, want ErrNotMember", err)
	}
}

func TestNextMixedChangesAdvanceOneEpoch(t *testing.T) {
	cur := View{Epoch: 5, Members: founding(3).Members}
	to, joined, err := Next(cur, 7, []Change{
		{Kind: ChangeJoin, Addr: "a"},
		{Kind: ChangeReplace, Dead: 0, Addr: "b"},
		{Kind: ChangeLeave, Dead: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if to.Epoch != 6 {
		t.Fatalf("epoch = %d, want 6 (one transition, however many changes)", to.Epoch)
	}
	if len(joined) != 2 || joined[0] != 7 || joined[1] != 8 {
		t.Fatalf("joined IDs = %v, want [7 8] in change order", joined)
	}
	want := []Member{{ID: 1}, {ID: 7, Addr: "a"}, {ID: 8, Addr: "b"}}
	if len(to.Members) != len(want) {
		t.Fatalf("members = %+v, want %+v", to.Members, want)
	}
	for i := range want {
		if to.Members[i] != want[i] {
			t.Fatalf("members = %+v, want %+v", to.Members, want)
		}
	}
}

func TestReplaceLastMemberAllowed(t *testing.T) {
	// Only the outgoing view may not be empty: a one-member world replacing
	// its member passes through zero members inside the change set.
	to, joined, err := Next(founding(1), 1, []Change{{Kind: ChangeReplace, Dead: 0, Addr: "new"}})
	if err != nil {
		t.Fatal(err)
	}
	if to.Size() != 1 || len(joined) != 1 || to.Members[0].ID != joined[0] {
		t.Fatalf("next view = %+v, joined = %v, want only the replacement", to, joined)
	}
}

func TestChangeKindString(t *testing.T) {
	for k, want := range map[ChangeKind]string{
		ChangeJoin:    "join",
		ChangeLeave:   "leave",
		ChangeReplace: "replace",
		ChangeKind(7): "change(7)",
	} {
		if got := k.String(); got != want {
			t.Fatalf("ChangeKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
