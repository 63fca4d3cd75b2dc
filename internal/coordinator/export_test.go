package coordinator

// TxnIsEmpty reports whether tid's live, in-memory state machine sits in
// Empty. The transaction tests are an external package (producer imports
// coordinator) and cannot read the field themselves.
func TxnIsEmpty(tc *TxnCoordinator, tid string) bool {
	t := tc.txns[tid]
	return t != nil && t.state == txnEmpty
}
