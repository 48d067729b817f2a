package core

import "errors"

// ErrAborted is returned by transactional operations once the transaction is
// doomed — its snapshot cannot be kept consistent, or a helper or a
// conflicting writer aborted it. It plays the role of the paper's
// AbortedException (Algorithm 2 line 58): the transaction body must stop and
// the runner retries it. Callers inside a transaction should propagate it
// unchanged; swallowing it is safe for consistency (Commit re-checks the
// status) but wastes work.
var ErrAborted = errors.New("stm: transaction aborted")

// ErrReadOnly is returned by Write on a transaction that was started with
// RunReadOnly. Read-only transactions may read old object versions, which
// would make any update unserializable.
var ErrReadOnly = errors.New("stm: write inside read-only transaction")

// ErrNotActive is returned when a transactional operation is invoked on a
// transaction that has already committed or aborted — typically a Tx handle
// leaked outside its Run function.
var ErrNotActive = errors.New("stm: transaction is not active")
