#!/usr/bin/env python3
"""Wire-level interop client for a distknn scalar serving cluster.

Speaks docs/PROTOCOL.md with nothing but the Python standard library:
frames single-point KNN queries and a batched KNN query at a frontend,
decodes the replies, and cross-checks them — the batch's per-query answers
must be bit-identical to the solo answers, items must arrive in ascending
(distance, id) order, and every reply must carry exactly l items. Every
query is a tagged frame; the solo queries are all written before any reply
is read, with the replies matched back by tag (the spec allows any
completion order). It is CI's proof that the spec is complete enough for a
non-Go client.

Usage: interop_client.py HOST:PORT [l] [point...]
"""
import socket
import struct
import sys

KIND_QUERY, KIND_REPLY = 12, 13
OP_KNN, TAG_SCALAR = 1, 1


def varint(n):
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


class Reader:
    def __init__(self, buf):
        self.buf, self.off = buf, 0

    def take(self, n):
        if self.off + n > len(self.buf):
            raise ValueError("reply truncated")
        b = self.buf[self.off:self.off + n]
        self.off += n
        return b

    def u8(self):
        return self.take(1)[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self):
        return struct.unpack("<d", self.take(8))[0]

    def varint(self):
        shift = n = 0
        while True:
            b = self.u8()
            n |= (b & 0x7F) << shift
            if not b & 0x80:
                return n
            shift += 7

    def string(self):
        return self.take(self.varint()).decode()


def send_frame(sock, payload):
    sock.sendall(struct.pack("<I", len(payload)) + payload)


def read_frame(sock):
    raw = b""
    while len(raw) < 4:
        chunk = sock.recv(4 - len(raw))
        if not chunk:
            raise ValueError("connection closed mid-frame")
        raw += chunk
    (size,) = struct.unpack("<I", raw)
    payload = b""
    while len(payload) < size:
        chunk = sock.recv(size - len(payload))
        if not chunk:
            raise ValueError("connection closed mid-frame")
        payload += chunk
    return payload


def send_query(sock, tag, points, l):
    body = bytes([KIND_QUERY]) + varint(tag) + bytes([OP_KNN]) + varint(l)
    body += bytes([TAG_SCALAR]) + varint(len(points))
    for p in points:
        enc = struct.pack("<Q", p)
        body += varint(len(enc)) + enc
    send_frame(sock, body)


def decode_reply(r):
    status = r.u8()
    if status:
        raise ValueError("remote error (status %d): %s" % (status, r.string()))
    rounds, messages, leader = r.varint(), r.varint(), r.varint()
    results = []
    for _ in range(r.varint()):
        boundary = (r.u64(), r.u64())
        r.f64()  # value (classify/regress only)
        items = [(r.u64(), r.u64(), r.f64()) for _ in range(r.varint())]
        results.append((boundary, items))
    if r.off != len(r.buf):
        raise ValueError("%d trailing reply bytes" % (len(r.buf) - r.off))
    # Every point of the batch contacts at least one node.
    if rounds < 1 or messages < len(results) or leader < 0:
        raise ValueError("implausible cost: rounds=%d messages=%d leader=%d"
                         % (rounds, messages, leader))
    return results


def knn(sock, queries, l):
    """Send every (tag, points) query before reading any reply, then collect
    the replies in whatever order they arrive, keyed by tag."""
    for tag, points in queries:
        send_query(sock, tag, points, l)
    pending = {tag for tag, _ in queries}
    by_tag = {}
    for _ in queries:
        r = Reader(read_frame(sock))
        if r.u8() != KIND_REPLY:
            raise ValueError("expected a reply frame")
        tag = r.varint()
        if tag not in pending:
            raise ValueError("reply for unknown or duplicate tag %d" % tag)
        pending.discard(tag)
        by_tag[tag] = decode_reply(r)
    return by_tag


def check(results, points, l):
    if len(results) != len(points):
        raise ValueError("%d results for %d queries" % (len(results), len(points)))
    for (boundary, items), p in zip(results, points):
        if len(items) != l:
            raise ValueError("point %d: %d items, want l=%d" % (p, len(items), l))
        keys = [(d, i) for d, i, _ in items]
        if keys != sorted(keys):
            raise ValueError("point %d: items not in ascending (distance, id) order" % p)
        if keys[-1] != boundary:
            raise ValueError("point %d: boundary %r != last item %r" % (p, boundary, keys[-1]))


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    host, port = sys.argv[1].rsplit(":", 1)
    l = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    points = [int(a) for a in sys.argv[3:]] or [12345, 7, 4096000, 2**31, 999999999]
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        # Every point as its own query, all outstanding at once.
        replies = knn(sock, [(300 + i, [p]) for i, p in enumerate(points)], l)
        solo = [replies[300 + i][0] for i in range(len(points))]
        check(solo, points, l)
        batch = knn(sock, [(7, points)], l)[7]
        check(batch, points, l)
        if batch != solo:
            raise ValueError("batched answers differ from solo answers")
    print("interop: %d outstanding solo + 1 batched query verified (l=%d), all bit-identical"
          % (len(points), l))


if __name__ == "__main__":
    main()
