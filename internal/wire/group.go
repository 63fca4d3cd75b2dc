package wire

import "time"

// Group-coordination messages, mirroring Kafka's consumer-group
// protocol: JoinGroup/SyncGroup establish membership and partition
// assignment under a monotonically increasing generation id,
// Heartbeat/LeaveGroup maintain it, and OffsetCommit/OffsetFetch move
// committed offsets through the coordinator's durable offsets log.
// Every fenced path (stale generation, unknown member, rebalance in
// progress) is reported through the error codes in wire.go.

// OffsetCommitRequest durably records a consumed position: the *next*
// offset to read for one partition, fenced by (member, generation).
type OffsetCommitRequest struct {
	CorrelationID uint32
	Group         string
	MemberID      string
	Generation    int32
	Topic         string
	Partition     int32
	Offset        int64
}

// OffsetCommitResponse acknowledges (or fences) an offset commit.
type OffsetCommitResponse struct {
	CorrelationID uint32
	Group         string
	Topic         string
	Partition     int32
	Err           ErrorCode
}

// OffsetFetchRequest reads the group's committed offset for a
// partition. A non-empty MemberID makes the fetch generation-fenced
// like a commit (a stale member must not resume from an offset it no
// longer owns); an empty MemberID is an administrative read.
type OffsetFetchRequest struct {
	CorrelationID uint32
	Group         string
	MemberID      string
	Generation    int32
	Topic         string
	Partition     int32
}

// OffsetFetchResponse returns the committed offset and the generation
// that committed it. A partition with no committed offset answers
// ErrNoCommittedOffset — not offset zero, which a restarting consumer
// could not tell apart from a real position.
type OffsetFetchResponse struct {
	CorrelationID uint32
	Group         string
	Topic         string
	Partition     int32
	Offset        int64
	Generation    int32
	Err           ErrorCode
}

// JoinGroupRequest asks the coordinator to admit a member. An empty
// MemberID requests a coordinator-assigned id (first join).
type JoinGroupRequest struct {
	CorrelationID  uint32
	Group          string
	MemberID       string
	Topic          string
	SessionTimeout time.Duration
	// Protocol selects the member's rebalance protocol: ProtocolEager
	// (stop-the-world revoke-all) or ProtocolCooperative (KIP-429
	// incremental). The coordinator assigns incrementally only when every
	// joined member speaks cooperative.
	Protocol uint8
	// OwnedPartitions lists the partitions the member still owns when it
	// (re)joins — the cooperative assignor's input: partitions owned by
	// another live member are withheld from their new target owner until
	// a follow-up rebalance observes them released. Eager members leave
	// it empty (they revoke everything before joining).
	OwnedPartitions []int32
}

// Rebalance protocols carried in JoinGroupRequest.Protocol.
const (
	ProtocolEager       uint8 = 0
	ProtocolCooperative uint8 = 1
)

// JoinGroupResponse completes a join once the rebalance barrier opens:
// the new generation, the member's (possibly coordinator-assigned) id,
// and the full member list in assignment order.
type JoinGroupResponse struct {
	CorrelationID uint32
	Group         string
	Generation    int32
	MemberID      string
	Leader        string
	Members       []string
	Err           ErrorCode
}

// SyncGroupRequest fetches the member's partition assignment for a
// generation.
type SyncGroupRequest struct {
	CorrelationID uint32
	Group         string
	MemberID      string
	Generation    int32
}

// SyncGroupResponse carries the coordinator-computed assignment.
type SyncGroupResponse struct {
	CorrelationID uint32
	Group         string
	Generation    int32
	Assigned      []int32
	Err           ErrorCode
}

// HeartbeatRequest keeps a member's session alive and learns about
// pending rebalances (ErrRebalanceInProgress).
type HeartbeatRequest struct {
	CorrelationID uint32
	Group         string
	MemberID      string
	Generation    int32
}

// HeartbeatResponse answers a heartbeat.
type HeartbeatResponse struct {
	CorrelationID uint32
	Err           ErrorCode
}

// LeaveGroupRequest announces a clean departure, triggering an
// immediate rebalance instead of a session-timeout wait.
type LeaveGroupRequest struct {
	CorrelationID uint32
	Group         string
	MemberID      string
}

// LeaveGroupResponse answers a leave.
type LeaveGroupResponse struct {
	CorrelationID uint32
	Err           ErrorCode
}
