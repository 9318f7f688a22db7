package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// FormatVersion is the on-disk snapshot format version. It is bumped on
// every incompatible change to any serialized layout; ReadFile rejects
// other versions with ErrVersion so a stale binary can never misparse a
// newer snapshot (or vice versa) into silently wrong simulator state.
// Version 2: hostmem tier gained prefetch/batch/sub-page state and the
// telemetry collector a prefetch batch-size histogram.
// Version 3: DRAM channels store in-flight completions in pop order (a
// FIFO ring) instead of as a binary-heap array.
// Version 4: caches store each way's tag as a packed key (tag+1, 0 free)
// instead of a tag and a used flag; the MEE's pending table is a slab
// indexed by the slot its DRAM tokens carry (with a free stack and per-slot
// generations) instead of a hash table keyed by token sequence numbers;
// flatmap tables are unchanged.
const FormatVersion = 4

// magic identifies a shmgpu snapshot file.
var magic = [8]byte{'S', 'H', 'M', 'S', 'N', 'A', 'P', 0}

// headerLen is magic(8) + version(4) + payloadLen(8) + checksum(8).
const headerLen = 28

var (
	// ErrVersion marks a snapshot written by a different format version.
	ErrVersion = errors.New("snapshot: format version mismatch")
	// ErrCorrupt marks a truncated or corrupted snapshot container
	// (bad magic, length mismatch, or checksum failure).
	ErrCorrupt = errors.New("snapshot: corrupt or truncated snapshot")
)

// Checksum returns the FNV-1a hash of the payload, the content checksum
// stored in the file header.
func Checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// Pack wraps a payload in the versioned, checksummed container.
func Pack(payload []byte) []byte {
	out := make([]byte, headerLen, headerLen+len(payload))
	copy(out, magic[:])
	binary.LittleEndian.PutUint32(out[8:12], FormatVersion)
	binary.LittleEndian.PutUint64(out[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint64(out[20:28], Checksum(payload))
	return append(out, payload...)
}

// Unpack validates the container and returns the payload. Version skew
// reports ErrVersion; any other container damage (magic, length,
// checksum) reports ErrCorrupt. Both are wrapped, so errors.Is works.
func Unpack(data []byte) ([]byte, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(data), headerLen)
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:8])
	}
	v := binary.LittleEndian.Uint32(data[8:12])
	if v != FormatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this binary supports %d", ErrVersion, v, FormatVersion)
	}
	want := binary.LittleEndian.Uint64(data[12:20])
	payload := data[headerLen:]
	if uint64(len(payload)) != want {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrCorrupt, len(payload), want)
	}
	if got, sum := Checksum(payload), binary.LittleEndian.Uint64(data[20:28]); got != sum {
		return nil, fmt.Errorf("%w: checksum %#x, header says %#x", ErrCorrupt, got, sum)
	}
	return payload, nil
}

// WriteFile writes the packed payload to path atomically: the container is
// written to a temp file in the same directory, synced, and renamed into
// place. A process killed mid-write leaves at most a temp file behind,
// never a partially written snapshot at path — and even a torn rename or
// truncated disk write is caught by the length and checksum checks on
// load.
func WriteFile(path string, payload []byte) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snap-*.tmp")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if _, err = f.Write(Pack(payload)); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// ReadFile reads and validates a snapshot file, returning its payload.
func ReadFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	payload, err := Unpack(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return payload, nil
}
