//go:build race

package gateway

// raceEnabled makes the client send a request's head and body in two
// writes instead of one writev: the race detector takes a socket write and
// the peer's read as an ordering, as the kernel does, but not a writev, and
// would report what a caller did before a request and the gateway's handler
// read on receiving it as a race.
const raceEnabled = true
