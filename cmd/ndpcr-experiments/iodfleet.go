package main

import (
	"fmt"
	"net"
	"os"

	"ndpcr/internal/iod"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// startIOD boots one in-memory I/O node on a loopback port and prints its
// "listening" line. It listens before it serves, so a failed bind is an
// error here, not a poll for an address that never comes.
func startIOD(name string) (*iod.Server, string, error) {
	srv, err := iod.NewServer(iostore.New(nvm.Pacer{}))
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go func() {
		if err := srv.Serve(ln); err != nil { // nil after Close
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		}
	}()
	addr := ln.Addr().String()
	fmt.Printf("  %s listening on %s\n", name, addr)
	return srv, addr, nil
}

// startIODs boots the live tier every scenario runs over: n I/O nodes,
// iod-0 … iod-(n-1). On error the nodes already up are closed.
func startIODs(n int) ([]*iod.Server, []string, error) {
	servers := make([]*iod.Server, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		srv, addr, err := startIOD(fmt.Sprintf("iod-%d", i))
		if err != nil {
			closeIODs(servers)
			return nil, nil, err
		}
		servers, addrs = append(servers, srv), append(addrs, addr)
	}
	return servers, addrs, nil
}

func closeIODs(servers []*iod.Server) {
	for _, srv := range servers {
		srv.Close()
	}
}
