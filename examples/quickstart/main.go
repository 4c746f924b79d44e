// Quickstart: checkpoint and restore application state through the NDP
// checkpoint/restart runtime in ~40 lines.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"log"

	"ndpcr/internal/compress"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// State is whatever your application needs to resume: here, a toy solver
// position.
type State struct {
	Iteration int
	Values    []float64
}

func main() {
	// 1. A global I/O store shared by all nodes (one here), and a node
	//    runtime with NDP compression enabled.
	store := iostore.New(nvm.Pacer{})
	gzip1, err := compress.Lookup("gzip", 1)
	if err != nil {
		log.Fatal(err)
	}
	n, err := node.New(node.Config{Job: "quickstart", Store: store, Codec: gzip1})
	if err != nil {
		log.Fatal(err)
	}
	defer n.Close()

	// 2. Run and checkpoint.
	state := State{Values: make([]float64, 1000)}
	for state.Iteration = 1; state.Iteration <= 3; state.Iteration++ {
		for i := range state.Values {
			state.Values[i] += float64(state.Iteration) // "compute"
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(state); err != nil {
			log.Fatal(err)
		}
		id, err := n.Commit(context.Background(), buf.Bytes(), node.Metadata{Step: state.Iteration})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("iteration %d: checkpoint %d committed (%d bytes)\n",
			state.Iteration, id, buf.Len())
	}

	// Wait for the NDP's background drain to land the last checkpoint on
	// the global store.
	if err := n.WaitDurableCtx(context.Background(), 3, ndp.LevelStore); err != nil {
		log.Fatal(err)
	}

	// 3. Disaster: the node dies and local NVM is lost.
	n.FailLocal()

	// 4. Restore — transparently served from the I/O level, with the
	//    compressed checkpoint decompressed across host cores.
	data, meta, level, err := n.Restore(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	var restored State
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&restored); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored from %s level: iteration %d (metadata step %d), %d values\n",
		level, restored.Iteration, meta.Step, len(restored.Values))
	if restored.Values[0] != 1+2+3 {
		log.Fatal("restored state is wrong")
	}
	fmt.Println("OK")
}
