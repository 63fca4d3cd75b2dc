package wire

import "testing"

func TestNewErrorCodeNamesAndRetriability(t *testing.T) {
	cases := []struct {
		code      ErrorCode
		name      string
		retriable bool
	}{
		{ErrCoordinatorNotAvailable, "COORDINATOR_NOT_AVAILABLE", true},
		{ErrIllegalGeneration, "ILLEGAL_GENERATION", false},
		{ErrUnknownMemberID, "UNKNOWN_MEMBER_ID", false},
		{ErrRebalanceInProgress, "REBALANCE_IN_PROGRESS", true},
		{ErrNoCommittedOffset, "NO_COMMITTED_OFFSET", false},
	}
	for _, c := range cases {
		if c.code.String() != c.name {
			t.Errorf("%d.String() = %q, want %q", c.code, c.code.String(), c.name)
		}
		if c.code.Retriable() != c.retriable {
			t.Errorf("%s.Retriable() = %v, want %v", c.name, c.code.Retriable(), c.retriable)
		}
		if int(c.code) >= NumErrorCodes {
			t.Errorf("%s = %d outside NumErrorCodes = %d", c.name, c.code, NumErrorCodes)
		}
	}
}
