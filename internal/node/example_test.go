package node_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"ndpcr/internal/compress"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// State is whatever an application needs to resume: here, a toy solver
// position.
type State struct {
	Iteration int
	Values    []float64
}

// Example shows the runtime's full lifecycle: commit to NVM, background
// NDP drain with compression, node loss, restore from the I/O level.
func Example() {
	// 1. A global I/O store shared by all nodes (one here), and a node
	//    runtime with NDP compression enabled.
	store := iostore.New(nvm.Pacer{})
	gzip1, err := compress.Lookup("gzip", 1)
	if err != nil {
		panic(err)
	}
	n, err := node.New(node.Config{Job: "quickstart", Store: store, Codec: gzip1})
	if err != nil {
		panic(err)
	}
	defer n.Close()

	// 2. Run and checkpoint.
	state := State{Values: make([]float64, 1000)}
	var last uint64
	for state.Iteration = 1; state.Iteration <= 3; state.Iteration++ {
		for i := range state.Values {
			state.Values[i] += float64(state.Iteration) // "compute"
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(state); err != nil {
			panic(err)
		}
		if last, err = n.Commit(context.Background(), buf.Bytes(), node.Metadata{Step: state.Iteration}); err != nil {
			panic(err)
		}
		fmt.Printf("iteration %d: checkpoint %d committed (%d bytes)\n", state.Iteration, last, buf.Len())
	}

	// The NDP drains in the background; wait for it to land the last
	// checkpoint on the global store so the example is deterministic.
	if err := n.WaitDurableCtx(context.Background(), last, ndp.LevelStore); err != nil {
		panic(err)
	}

	// 3. Disaster: the node dies and local NVM is lost.
	n.FailLocal()

	// 4. Restore — served from the I/O level, decompressed on the way.
	data, meta, level, err := n.Restore(context.Background())
	if err != nil {
		panic(err)
	}
	var restored State
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&restored); err != nil {
		panic(err)
	}
	fmt.Printf("restored from the %s level: iteration %d (metadata step %d), values[0] = %g\n",
		level, restored.Iteration, meta.Step, restored.Values[0])
	// Output:
	// iteration 1: checkpoint 1 committed (3081 bytes)
	// iteration 2: checkpoint 2 committed (3081 bytes)
	// iteration 3: checkpoint 3 committed (3081 bytes)
	// restored from the io level: iteration 3 (metadata step 3), values[0] = 6
}
