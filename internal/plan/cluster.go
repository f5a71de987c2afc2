// Cluster wire messages: the chunk-task request and composition-vector
// response exchanged between a distributed-execution coordinator and
// its peers (internal/cluster). They follow the plan container's
// conventions exactly — little-endian framing, a magic + version
// header, length-validated fields, and a trailing CRC-64/ECMA checksum
// verified before any parsing — so the same strict-decoder guarantees
// hold on the network boundary as on the plan container's.
//
// ClusterTask layout:
//
//	magic        [8]byte  "DPFSMTSK"
//	version      uint16
//	fingerprint  uint16 len + bytes   identity of the plan the task runs under
//	chunk_index  uint32               position of this chunk in the input
//	total_chunks uint32               fan-out width (cross-checkable by peers)
//	input        uint32 len + bytes   the chunk's raw input bytes
//	checksum     uint64               CRC-64/ECMA of everything above
//
// ClusterVector layout:
//
//	magic        [8]byte  "DPFSMVEC"
//	version      uint16
//	fingerprint  uint16 len + bytes   echoed task fingerprint
//	chunk_index  uint32               echoed task index
//	n            uint32               state count
//	states       n × uint16           the chunk's composition vector
//	checksum     uint64               CRC-64/ECMA of everything above
//
// The response carries one n-entry vector per chunk regardless of
// chunk length — the §3.4 property that makes the MapReduce
// decomposition's wire traffic shrink relative to compute.
package plan

import (
	"encoding/binary"
	"fmt"
)

// ClusterVersion is the current cluster wire-message version.
const ClusterVersion = 1

var (
	taskMagic   = [8]byte{'D', 'P', 'F', 'S', 'M', 'T', 'S', 'K'}
	vectorMagic = [8]byte{'D', 'P', 'F', 'S', 'M', 'V', 'E', 'C'}
)

// Cluster wire bounds. A chunk can be as large as a whole machine
// encoding; a vector has one entry per state.
const (
	maxFingerprintLen = 128
	maxChunkLen       = maxMachineLen
	maxTotalChunks    = 1 << 24
)

// ClusterTask asks a peer to run one input chunk through the plan
// identified by Fingerprint and return its composition vector.
type ClusterTask struct {
	// Fingerprint is the compiled plan's identity; the peer must
	// already hold the matching plan (or answer unknown-plan so the
	// coordinator ships it).
	Fingerprint string
	// ChunkIndex is this chunk's position in the input's chunk order;
	// TotalChunks is the job's fan-out width.
	ChunkIndex  uint32
	TotalChunks uint32
	// Input is the chunk's raw bytes.
	Input []byte
}

// MarshalBinary encodes t with the versioned framing and trailing
// checksum, validating the same bounds UnmarshalClusterTask enforces.
func (t *ClusterTask) MarshalBinary() ([]byte, error) {
	if len(t.Fingerprint) == 0 || len(t.Fingerprint) > maxFingerprintLen {
		return nil, fmt.Errorf("plan: fingerprint length %d out of range [1, %d]", len(t.Fingerprint), maxFingerprintLen)
	}
	if len(t.Input) > maxChunkLen {
		return nil, fmt.Errorf("plan: chunk length %d exceeds %d", len(t.Input), maxChunkLen)
	}
	if t.TotalChunks == 0 || t.TotalChunks > maxTotalChunks {
		return nil, fmt.Errorf("plan: total chunk count %d out of range [1, %d]", t.TotalChunks, maxTotalChunks)
	}
	if t.ChunkIndex >= t.TotalChunks {
		return nil, fmt.Errorf("plan: chunk index %d out of range for %d chunks", t.ChunkIndex, t.TotalChunks)
	}
	out := make([]byte, 0, 32+len(t.Fingerprint)+len(t.Input))
	out = append(out, taskMagic[:]...)
	out = binary.LittleEndian.AppendUint16(out, ClusterVersion)
	out = appendString16(out, t.Fingerprint)
	out = binary.LittleEndian.AppendUint32(out, t.ChunkIndex)
	out = binary.LittleEndian.AppendUint32(out, t.TotalChunks)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(t.Input)))
	out = append(out, t.Input...)
	out = binary.LittleEndian.AppendUint64(out, checksum(out))
	return out, nil
}

// UnmarshalClusterTask decodes a chunk-task message, verifying magic,
// version, and checksum before interpreting the payload. The returned
// task owns a fresh copy of the input chunk.
func UnmarshalClusterTask(data []byte) (*ClusterTask, error) {
	body, err := openFrame(data, taskMagic)
	if err != nil {
		return nil, err
	}
	c := cursor{buf: body}
	if err := clusterVersionCheck(&c); err != nil {
		return nil, err
	}
	t := &ClusterTask{}
	t.Fingerprint = c.str16(maxFingerprintLen)
	if c.err == nil && t.Fingerprint == "" {
		return nil, fmt.Errorf("plan: empty task fingerprint")
	}
	t.ChunkIndex = c.u32()
	t.TotalChunks = c.u32()
	if c.err == nil && (t.TotalChunks == 0 || t.TotalChunks > maxTotalChunks) {
		return nil, fmt.Errorf("plan: total chunk count %d out of range [1, %d]", t.TotalChunks, maxTotalChunks)
	}
	if c.err == nil && t.ChunkIndex >= t.TotalChunks {
		return nil, fmt.Errorf("plan: chunk index %d out of range for %d chunks", t.ChunkIndex, t.TotalChunks)
	}
	ilen := int(c.u32())
	if c.err == nil && ilen > maxChunkLen {
		return nil, fmt.Errorf("plan: chunk length %d exceeds %d", ilen, maxChunkLen)
	}
	if c.err != nil {
		return nil, c.err
	}
	t.Input = c.bytes(ilen)
	return t, closeFrame(&c)
}

// ClusterVector is a peer's answer to one ClusterTask: the chunk's
// full composition vector, echoing the task identity so the
// coordinator can verify it reduces the chunk it dispatched.
type ClusterVector struct {
	Fingerprint string
	ChunkIndex  uint32
	// States is the n-entry composition vector: States[q] is the state
	// reached from start state q after consuming the chunk.
	States []uint16
}

// MarshalBinary encodes v with the versioned framing and trailing
// checksum.
func (v *ClusterVector) MarshalBinary() ([]byte, error) {
	if len(v.Fingerprint) == 0 || len(v.Fingerprint) > maxFingerprintLen {
		return nil, fmt.Errorf("plan: fingerprint length %d out of range [1, %d]", len(v.Fingerprint), maxFingerprintLen)
	}
	if len(v.States) == 0 || len(v.States) > maxStates {
		return nil, fmt.Errorf("plan: vector length %d out of range [1, %d]", len(v.States), maxStates)
	}
	out := make([]byte, 0, 32+len(v.Fingerprint)+2*len(v.States))
	out = append(out, vectorMagic[:]...)
	out = binary.LittleEndian.AppendUint16(out, ClusterVersion)
	out = appendString16(out, v.Fingerprint)
	out = binary.LittleEndian.AppendUint32(out, v.ChunkIndex)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(v.States)))
	for _, st := range v.States {
		out = binary.LittleEndian.AppendUint16(out, st)
	}
	out = binary.LittleEndian.AppendUint64(out, checksum(out))
	return out, nil
}

// UnmarshalClusterVector decodes a composition-vector message,
// verifying magic, version, and checksum before interpreting the
// payload, and bounds-checking the vector length against the
// remaining buffer before allocating.
func UnmarshalClusterVector(data []byte) (*ClusterVector, error) {
	body, err := openFrame(data, vectorMagic)
	if err != nil {
		return nil, err
	}
	c := cursor{buf: body}
	if err := clusterVersionCheck(&c); err != nil {
		return nil, err
	}
	v := &ClusterVector{}
	v.Fingerprint = c.str16(maxFingerprintLen)
	if c.err == nil && v.Fingerprint == "" {
		return nil, fmt.Errorf("plan: empty vector fingerprint")
	}
	v.ChunkIndex = c.u32()
	n := int(c.u32())
	if c.err == nil && (n == 0 || n > maxStates) {
		return nil, fmt.Errorf("plan: vector length %d out of range [1, %d]", n, maxStates)
	}
	if c.err != nil {
		return nil, c.err
	}
	// n is attacker-controlled on hostile input: check the remaining
	// buffer before the allocation.
	if 2*n > len(c.buf) {
		return nil, ErrTruncated
	}
	v.States = make([]uint16, n)
	for i := range v.States {
		v.States[i] = c.u16()
	}
	return v, closeFrame(&c)
}

// openFrame validates the fixed framing shared by every cluster
// message — magic, minimum length, trailing checksum — and returns the
// body after the magic (version onward, checksum stripped).
func openFrame(data []byte, want [8]byte) ([]byte, error) {
	if len(data) < 8+2+8 {
		return nil, ErrTruncated
	}
	if [8]byte(data[:8]) != want {
		return nil, ErrBadMagic
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	if binary.LittleEndian.Uint64(tail) != checksum(body) {
		return nil, ErrChecksum
	}
	return body[8:], nil
}

// clusterVersionCheck reads and validates the message version.
func clusterVersionCheck(c *cursor) error {
	version := c.u16()
	if c.err != nil {
		return c.err
	}
	if version != ClusterVersion {
		return fmt.Errorf("%w: %d (cluster decoder supports %d)", ErrVersion, version, ClusterVersion)
	}
	return nil
}

// closeFrame finishes a decode: any latched cursor error wins, then
// trailing garbage is rejected.
func closeFrame(c *cursor) error {
	if c.err != nil {
		return c.err
	}
	if len(c.buf) != 0 {
		return fmt.Errorf("plan: %d trailing bytes after payload", len(c.buf))
	}
	return nil
}
