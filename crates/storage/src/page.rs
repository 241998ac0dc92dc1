//! Slotted pages: the on-"disk" representation of tuples.
//!
//! Classic layout: a header (slot count), a slot directory growing from
//! the front, and tuple payloads packed from the back. Values use a
//! compact tagged serialization. Pages are fixed at 8 KB — a tuple that
//! cannot fit an empty page ([`MAX_TUPLE_BYTES`]) is rejected (TPC-H's
//! widest rows are far below that).

use crate::value::{Tuple, Value};

/// Page size in bytes.
pub const PAGE_SIZE: usize = 8192;

const HEADER: usize = 4; // u16 slot_count + u16 free_end
const SLOT: usize = 4; // u16 offset + u16 len

/// The widest serialized tuple ([`serialized_len`]) of which `n` fit
/// an empty page together.
pub const fn max_tuple_bytes(n: usize) -> usize {
    (PAGE_SIZE - HEADER) / n - SLOT
}

/// The widest serialized tuple an empty page holds.
pub const MAX_TUPLE_BYTES: usize = max_tuple_bytes(1);

/// A fixed-size slotted page of serialized tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// An empty page.
    pub fn new() -> Self {
        let mut p = Self {
            buf: Box::new([0u8; PAGE_SIZE]),
        };
        p.set_slot_count(0);
        p.set_free_end(PAGE_SIZE as u16);
        p
    }

    fn slot_count(&self) -> u16 {
        u16::from_le_bytes([self.buf[0], self.buf[1]])
    }
    fn set_slot_count(&mut self, n: u16) {
        self.buf[0..2].copy_from_slice(&n.to_le_bytes());
    }
    fn free_end(&self) -> u16 {
        u16::from_le_bytes([self.buf[2], self.buf[3]])
    }
    fn set_free_end(&mut self, n: u16) {
        self.buf[2..4].copy_from_slice(&n.to_le_bytes());
    }

    /// Number of tuples stored.
    pub fn len(&self) -> usize {
        self.slot_count() as usize
    }

    /// True when the page holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of free space remaining.
    pub fn free_space(&self) -> usize {
        let used_front = HEADER + self.len() * SLOT;
        (self.free_end() as usize).saturating_sub(used_front)
    }

    /// Try to append a tuple; returns `false` when it does not fit.
    pub fn insert(&mut self, tuple: &Tuple) -> bool {
        serialized_len(tuple) + SLOT <= self.free_space()
            && self.push_payload(&serialize_tuple(tuple))
    }

    /// Try to append an already serialized tuple (see
    /// [`serialize_tuple`]); returns `false` when it does not fit.
    pub(crate) fn push_payload(&mut self, payload: &[u8]) -> bool {
        if payload.len() + SLOT > self.free_space() {
            return false;
        }
        let end = self.free_end() as usize;
        let start = end - payload.len();
        self.buf[start..end].copy_from_slice(payload);
        let slot = self.slot_count() as usize;
        let off = HEADER + slot * SLOT;
        self.buf[off..off + 2].copy_from_slice(&(start as u16).to_le_bytes());
        self.buf[off + 2..off + 4].copy_from_slice(&(payload.len() as u16).to_le_bytes());
        self.set_slot_count((slot + 1) as u16);
        self.set_free_end(start as u16);
        true
    }

    /// The serialized bytes of the tuple in a slot. Panics on an
    /// out-of-range slot.
    pub(crate) fn payload(&self, slot: usize) -> &[u8] {
        assert!(slot < self.len(), "slot {slot} out of range {}", self.len());
        let off = HEADER + slot * SLOT;
        let start = u16::from_le_bytes([self.buf[off], self.buf[off + 1]]) as usize;
        let len = u16::from_le_bytes([self.buf[off + 2], self.buf[off + 3]]) as usize;
        &self.buf[start..start + len]
    }

    /// Read the tuple in a slot. Panics on an out-of-range slot.
    pub fn get(&self, slot: usize) -> Tuple {
        deserialize_tuple(self.payload(slot))
    }

    /// Read columns `cols` (strictly ascending) of the tuple in a slot
    /// into `out` (replacing its contents), skipping the others without
    /// decoding them.
    pub(crate) fn project_into(&self, slot: usize, cols: &[usize], out: &mut Tuple) {
        let buf = self.payload(slot);
        let mut pos = 2;
        let mut next = 0;
        out.clear();
        for &col in cols {
            assert!(col >= next, "projected columns must be strictly ascending");
            for _ in next..col {
                skip_value(buf, &mut pos);
            }
            out.push(read_value(buf, &mut pos));
            next = col + 1;
        }
    }

    /// Decode every tuple on the page.
    pub fn all_tuples(&self) -> Vec<Tuple> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Bytes occupied (header + slots + payloads); the I/O cost of
    /// reading this page is nevertheless always the full `PAGE_SIZE`.
    pub fn used_bytes(&self) -> usize {
        HEADER + self.len() * SLOT + (PAGE_SIZE - self.free_end() as usize)
    }

    /// FNV-1a 64-bit checksum over the raw page image. Computed once
    /// at load time and verified on every buffer-pool read so a
    /// corrupted page is detected before its tuples are decoded.
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in self.buf.iter() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Corrupt one byte of the raw page image (a fault-injection /
    /// test hook: the next checksum verification must detect it).
    pub fn flip_byte(&mut self, offset: usize) {
        self.buf[offset % PAGE_SIZE] ^= 0xFF;
    }
}

// --- value serialization --------------------------------------------------

const TAG_INT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_DATE: u8 = 3;
const TAG_CHAR: u8 = 4;
const TAG_BOOL: u8 = 5;

fn serialize_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            let b = s.as_bytes();
            assert!(b.len() <= u16::MAX as usize, "string too long for page");
            out.extend_from_slice(&(b.len() as u16).to_le_bytes());
            out.extend_from_slice(b);
        }
        Value::Date(d) => {
            out.push(TAG_DATE);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Char(c) => {
            out.push(TAG_CHAR);
            let mut b = [0u8; 4];
            let s = c.encode_utf8(&mut b);
            out.push(s.len() as u8);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
    }
}

/// Length in bytes of [`serialize_tuple`]'s output, computed without
/// serializing.
pub fn serialized_len(t: &Tuple) -> usize {
    2 + t.iter().map(value_len).sum::<usize>()
}

/// Length in bytes of one serialized value, tag included.
pub(crate) fn value_len(v: &Value) -> usize {
    match v {
        Value::Int(_) => 9,
        Value::Str(s) => 3 + s.len(),
        Value::Date(_) => 5,
        Value::Char(c) => 2 + c.len_utf8(),
        Value::Bool(_) => 2,
    }
}

/// Serialize a tuple to bytes (u16 arity + tagged values).
pub fn serialize_tuple(t: &Tuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(serialized_len(t));
    serialize_into(t.iter(), &mut out);
    out
}

/// Append the serialization of the tuple made of `values` to `out`
/// (the bytes [`serialize_tuple`] gives), without building the tuple.
pub(crate) fn serialize_into<'a>(
    values: impl ExactSizeIterator<Item = &'a Value>,
    out: &mut Vec<u8>,
) {
    out.extend_from_slice(&(values.len() as u16).to_le_bytes());
    for v in values {
        serialize_value(v, out);
    }
}

/// Deserialize a tuple from bytes produced by [`serialize_tuple`].
pub fn deserialize_tuple(buf: &[u8]) -> Tuple {
    let arity = u16::from_le_bytes([buf[0], buf[1]]) as usize;
    let mut pos = 2;
    (0..arity).map(|_| read_value(buf, &mut pos)).collect()
}

/// Decode the tagged value at `*pos`, advancing past it.
fn read_value(buf: &[u8], pos: &mut usize) -> Value {
    let tag = buf[*pos];
    let body = *pos + 1;
    *pos = body + value_body_len(buf, tag, body);
    let field = &buf[body..*pos];
    match tag {
        TAG_INT => {
            let mut b = [0u8; 8];
            b.copy_from_slice(field);
            Value::Int(i64::from_le_bytes(b))
        }
        TAG_STR => Value::str(utf8(&field[2..])),
        TAG_DATE => {
            let mut b = [0u8; 4];
            b.copy_from_slice(field);
            Value::Date(i32::from_le_bytes(b))
        }
        TAG_CHAR => match utf8(&field[1..]).chars().next() {
            Some(c) => Value::Char(c),
            None => panic!("corrupt page: empty char payload"),
        },
        TAG_BOOL => Value::Bool(field[0] != 0),
        other => panic!("corrupt page: unknown value tag {other}"),
    }
}

/// Advance `*pos` past the tagged value there without decoding it.
fn skip_value(buf: &[u8], pos: &mut usize) {
    let tag = buf[*pos];
    *pos += 1 + value_body_len(buf, tag, *pos + 1);
}

/// Bytes after the tag of a value whose body starts at `body`.
fn value_body_len(buf: &[u8], tag: u8, body: usize) -> usize {
    match tag {
        TAG_INT => 8,
        TAG_STR => 2 + u16::from_le_bytes([buf[body], buf[body + 1]]) as usize,
        TAG_DATE => 4,
        TAG_CHAR => 1 + buf[body] as usize,
        TAG_BOOL => 1,
        other => panic!("corrupt page: unknown value tag {other}"),
    }
}

fn utf8(bytes: &[u8]) -> &str {
    match std::str::from_utf8(bytes) {
        Ok(s) => s,
        Err(e) => panic!("corrupt page: bad utf8 ({e})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tuple {
        vec![
            Value::Int(-42),
            Value::str("hello world"),
            Value::Date(1234),
            Value::Char('Z'),
        ]
    }

    #[test]
    fn tuple_roundtrip() {
        let t = sample();
        assert_eq!(deserialize_tuple(&serialize_tuple(&t)), t);
    }

    #[test]
    fn unicode_roundtrip() {
        let t: Tuple = vec![Value::str("naïve — 日本"), Value::Char('é')];
        assert_eq!(deserialize_tuple(&serialize_tuple(&t)), t);
    }

    #[test]
    fn serialized_len_matches_serialization() {
        for t in [
            sample(),
            vec![
                Value::str("naïve — 日本"),
                Value::Char('é'),
                Value::Bool(true),
            ],
            Vec::new(),
        ] {
            assert_eq!(serialized_len(&t), serialize_tuple(&t).len(), "{t:?}");
        }
    }

    #[test]
    fn projected_reads_skip_other_columns() {
        let mut p = Page::new();
        let t = vec![
            Value::str("skipped"),
            Value::Int(7),
            Value::Char('日'),
            Value::Bool(false),
            Value::Date(-3),
        ];
        assert!(p.insert(&t));
        let mut out = Vec::new();
        for (col, v) in t.iter().enumerate() {
            p.project_into(0, &[col], &mut out);
            assert_eq!(out, vec![v.clone()]);
        }
        p.project_into(0, &[1, 4], &mut out);
        assert_eq!(out, vec![Value::Int(7), Value::Date(-3)]);
        p.project_into(0, &[], &mut out);
        assert_eq!(out, Vec::<Value>::new());
        p.project_into(0, &[0, 1, 2, 3, 4], &mut out);
        assert_eq!(out, t);
        assert_eq!(deserialize_tuple(p.payload(0)), t);
    }

    #[test]
    fn an_empty_page_holds_exactly_max_tuple_bytes() {
        // Arity 1 + a string: 2 + 3 + len bytes.
        let widest = vec![Value::str("x".repeat(MAX_TUPLE_BYTES - 5))];
        assert_eq!(serialized_len(&widest), MAX_TUPLE_BYTES);
        let mut p = Page::new();
        assert!(p.insert(&widest));
        assert_eq!(p.free_space(), 0, "filled to the byte");
        let wider = vec![Value::str("x".repeat(MAX_TUPLE_BYTES - 4))];
        assert!(!Page::new().insert(&wider));
        // Two tuples of max_tuple_bytes(2) fill a page together.
        let half = vec![Value::str("x".repeat(max_tuple_bytes(2) - 5))];
        let mut p = Page::new();
        assert!(p.insert(&half) && p.insert(&half));
        assert_eq!(p.free_space(), 0);
    }

    #[test]
    fn page_insert_and_get() {
        let mut p = Page::new();
        assert!(p.is_empty());
        for i in 0..10 {
            let mut t = sample();
            t[0] = Value::Int(i);
            assert!(p.insert(&t));
        }
        assert_eq!(p.len(), 10);
        for i in 0..10 {
            assert_eq!(p.get(i)[0], Value::Int(i as i64));
        }
        assert_eq!(p.all_tuples().len(), 10);
    }

    #[test]
    fn page_fills_up_and_rejects() {
        let mut p = Page::new();
        let t = sample();
        let mut n = 0;
        while p.insert(&t) {
            n += 1;
            assert!(n < 10_000, "page never filled");
        }
        // A reasonable number of ~40-byte tuples fit an 8 KB page.
        assert!(n > 100, "only {n} tuples fit");
        assert!(!p.insert(&t));
        // Everything already stored is still readable.
        assert_eq!(p.len(), n);
        assert_eq!(p.get(n - 1), t);
    }

    #[test]
    fn free_space_decreases_monotonically() {
        let mut p = Page::new();
        let mut prev = p.free_space();
        for _ in 0..20 {
            p.insert(&sample());
            let now = p.free_space();
            assert!(now < prev);
            prev = now;
        }
        assert!(p.used_bytes() + p.free_space() <= PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_slot_panics() {
        Page::new().get(0);
    }

    #[test]
    fn checksum_detects_any_flipped_byte() {
        let mut p = Page::new();
        for i in 0..10 {
            let mut t = sample();
            t[0] = Value::Int(i);
            assert!(p.insert(&t));
        }
        let clean = p.checksum();
        for offset in [0usize, 3, 17, PAGE_SIZE / 2, PAGE_SIZE - 1] {
            p.flip_byte(offset);
            assert_ne!(p.checksum(), clean, "flip at {offset} went undetected");
            p.flip_byte(offset); // restore
            assert_eq!(p.checksum(), clean);
        }
    }
}
