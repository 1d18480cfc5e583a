package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
)

// The integrity seal: bytes at rest (disk cache entries, checkpoints)
// are sealed in an envelope, bodies on the wire (worker replies, peer
// cache GETs and PUTs) carry a digest header. Unsealed is damaged.

// MaxResultBytes caps a result document read off the network. Results
// are a few KiB even with a trace; anything near it is corrupt or hostile.
const MaxResultBytes = 64 << 20

// Seal wraps payload in the envelope: magic, the 64 hex characters of
// Digest(payload), a newline, then payload.
func Seal(magic string, payload []byte) []byte {
	return append([]byte(magic+Digest(payload)+"\n"), payload...)
}

// Unseal checks data's envelope against magic and returns the payload
// it seals.
func Unseal(magic string, data []byte) ([]byte, error) {
	header := len(magic) + hex.EncodedLen(sha256.Size)
	if !bytes.HasPrefix(data, []byte(magic)) || len(data) <= header || data[header] != '\n' {
		return nil, errors.New("no checksum envelope")
	}
	payload := data[header+1:]
	if err := CheckDigest(string(data[len(magic):header]), payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Digest is the hex SHA-256 of body, the value of a body-digest header.
func Digest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// CheckDigest checks body against the digest its header carried; a
// missing digest fails like a wrong one.
func CheckDigest(want string, body []byte) error {
	if want == "" {
		return errors.New("missing body checksum")
	}
	if Digest(body) != want {
		return errors.New("body checksum mismatch")
	}
	return nil
}
