package node

import (
	"fmt"

	"ndpcr/internal/node/nvm"
)

// Partner-level checkpointing (§3.4): in addition to the local level, a
// checkpoint is redundantly stored in a *partner* compute node's local
// storage, so failures that destroy one node's NVM can still recover at
// local-storage speed from the buddy instead of falling back to global
// I/O. The cluster layer pairs nodes and routes copies; this file holds
// the access methods of the per-node partner region.

// StorePartnerCopy stores another rank's checkpoint in this node's partner
// region. The cluster calls it on the buddy node during a coordinated
// checkpoint.
func (n *Node) StorePartnerCopy(fromRank int, id uint64, data []byte, meta Metadata) error {
	key, err := n.partner.key(fromRank, 0, id)
	if err != nil {
		return err
	}
	if err := n.partner.dev.Put(nvm.Checkpoint{ID: key, Data: data, Meta: meta.toMap(id)}); err != nil {
		return fmt.Errorf("node: partner copy rank %d ckpt %d: %w", fromRank, id, err)
	}
	return nil
}

// PartnerCopy retrieves another rank's checkpoint from this node's partner
// region.
func (n *Node) PartnerCopy(fromRank int, id uint64) ([]byte, Metadata, error) {
	ckpt, err := n.partner.get(fromRank, 0, id)
	if err != nil {
		return nil, Metadata{}, err
	}
	meta, err := MetadataFromMap(ckpt.Meta)
	if err != nil {
		// restoreFromPartner treats any error as a level miss, so corrupt
		// partner metadata falls through the hierarchy instead of
		// restoring under a zero rank/step.
		n.mMetaErrs.Inc()
		return nil, Metadata{}, err
	}
	return ckpt.Data, meta, nil
}

// DiscardPartnerCopy removes another rank's checkpoint from this node's
// partner region (the abort path of a failed coordinated checkpoint).
// Discarding a copy that was never stored is a no-op.
func (n *Node) DiscardPartnerCopy(fromRank int, id uint64) { n.partner.discard(fromRank, 0, id) }

// PartnerCopyIDs lists the checkpoint IDs this node's partner region holds
// for a given rank, ascending.
func (n *Node) PartnerCopyIDs(fromRank int) []uint64 { return n.partner.ids(fromRank) }

// SetPartner wires this node's restore path to the buddy holding its
// partner copies. The cluster layer calls it during assembly. A node can
// never buddy with itself: a self-copy lives on the same physical NVM the
// partner level exists to survive losing, so it would count as redundancy
// while protecting nothing. Passing nil unwires the level.
func (n *Node) SetPartner(buddy *Node) error {
	if buddy == n {
		return fmt.Errorf("node: rank %d cannot be its own partner (a self-copy shares the NVM it must outlive)", n.cfg.Rank)
	}
	n.mu.Lock()
	n.buddy = buddy
	n.mu.Unlock()
	return nil
}

// restoreFromPartner tries the buddy's partner region for this rank's
// checkpoint.
func (n *Node) restoreFromPartner(id uint64) ([]byte, Metadata, bool) {
	n.mu.Lock()
	buddy := n.buddy
	n.mu.Unlock()
	if buddy == nil {
		return nil, Metadata{}, false
	}
	data, meta, err := buddy.PartnerCopy(n.cfg.Rank, id)
	if err != nil {
		return nil, Metadata{}, false
	}
	return data, meta, true
}
