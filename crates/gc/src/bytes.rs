//! Byte-encoded type descriptors — the **interpreted method** (§1.1,
//! §2.4).
//!
//! "The gc_word ... would instead point to a descriptor that describes the
//! types of variables in the activation record. Garbage collection would
//! be somewhat slower, since the descriptor would have to be interpreted
//! while traversing the activation record. However, the code size should
//! be significantly less." Experiment E4 runs exactly this trade-off.
//!
//! Encoding (all multi-byte values little-endian):
//!
//! ```text
//! 0x00                 PRIM    (no pointers)
//! 0x01 u16             PARAM   (frame environment index)
//! 0x02 u16 d...        TUPLE   (field count, then field descriptors)
//! 0x03 u32 u8 d...     DATA    (datatype id, arg count, arg descriptors)
//! 0x04 d d             ARROW   (argument and result descriptors)
//! ```
//!
//! Datatype variants are described once per datatype in a side table whose
//! field descriptors use `PARAM` for the datatype's own parameters.

use std::collections::HashMap;
use tfgc_ir::IrProgram;
use tfgc_types::{data_scheme, DataId, ParamId, SchemeId, Type};

const OP_PRIM: u8 = 0;
const OP_PARAM: u8 = 1;
const OP_TUPLE: u8 = 2;
const OP_DATA: u8 = 3;
const OP_ARROW: u8 = 4;

/// The descriptor pool plus per-datatype variant tables.
#[derive(Debug, Clone, Default)]
pub struct BytePool {
    bytes: Vec<u8>,
    dedup: HashMap<Vec<u8>, u32>,
    /// `data_fields[data][ctor]` = positions of each field's descriptor.
    pub data_fields: Vec<Vec<Vec<u32>>>,
}

/// A parsed descriptor head. A tuple's fields and a datatype's arguments
/// stay where they lie in the pool: [`BytePool::children`] reads their
/// positions, so a parse builds nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescView {
    Prim,
    Param(u16),
    Tuple(Children),
    Data(DataId, Children),
    Arrow(u32, u32),
}

/// The child descriptors of a tuple or datatype descriptor: `len`
/// descriptors laid end to end from position `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Children {
    start: u32,
    len: u16,
}

impl Children {
    /// How many children there are.
    pub fn len(self) -> usize {
        usize::from(self.len)
    }

    /// True when there are none.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

impl BytePool {
    /// Builds the pool with variant tables for every datatype of `prog`.
    pub fn new(prog: &IrProgram) -> BytePool {
        let mut pool = BytePool::default();
        for (id, def) in prog.data_env.iter() {
            let scheme = data_scheme(id);
            let param_index: HashMap<ParamId, u16> = (0..def.arity)
                .map(|i| (ParamId { scheme, index: i }, i as u16))
                .collect();
            let table: Vec<Vec<u32>> = def
                .ctors
                .iter()
                .map(|c| {
                    c.fields
                        .iter()
                        .map(|ft| pool.encode_type(ft, &param_index, &[]))
                        .collect()
                })
                .collect();
            pool.data_fields.push(table);
        }
        pool
    }

    /// Total descriptor bytes (the interpreted method's metadata size).
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Encodes `ty`, interning duplicates. Returns the descriptor's
    /// position.
    pub fn encode_type(
        &mut self,
        ty: &Type,
        param_index: &HashMap<ParamId, u16>,
        opaque: &[SchemeId],
    ) -> u32 {
        let mut buf = Vec::new();
        encode_into(ty, param_index, opaque, &mut buf);
        if let Some(pos) = self.dedup.get(&buf) {
            return *pos;
        }
        let pos = self.bytes.len() as u32;
        self.bytes.extend_from_slice(&buf);
        self.dedup.insert(buf, pos);
        pos
    }

    /// Parses the descriptor head at `pos`, reading past its children
    /// to find where it ends (this sequential decode *is* the
    /// interpretation cost). Adds the bytes it reads to `bytes_read`:
    /// the whole descriptor, except an arrow's result descriptor, which
    /// is parsed only on demand.
    pub fn parse(&self, pos: u32, bytes_read: &mut u64) -> DescView {
        let mut cur = pos as usize;
        let op = self.bytes[cur];
        cur += 1;
        let view = match op {
            OP_PRIM => DescView::Prim,
            OP_PARAM => DescView::Param(self.read_u16(&mut cur)),
            OP_TUPLE => {
                let len = self.read_u16(&mut cur);
                DescView::Tuple(self.skip_children(&mut cur, len))
            }
            OP_DATA => {
                let d = self.read_u32(&mut cur);
                let len = u16::from(self.bytes[cur]);
                cur += 1;
                DescView::Data(DataId(d), self.skip_children(&mut cur, len))
            }
            OP_ARROW => {
                let a = cur as u32;
                self.skip(&mut cur);
                DescView::Arrow(a, cur as u32)
            }
            other => panic!("corrupt descriptor opcode {other}"),
        };
        *bytes_read += (cur - pos as usize) as u64;
        view
    }

    /// The positions of `children`, in order. Each is found by skipping
    /// its predecessors again; [`BytePool::parse`] has already counted
    /// their bytes.
    pub fn children(&self, children: Children) -> impl Iterator<Item = u32> + '_ {
        let mut cur = children.start as usize;
        (0..children.len).map(move |_| {
            let pos = cur as u32;
            self.skip(&mut cur);
            pos
        })
    }

    /// Skips `len` descriptors laid end to end from `cur`.
    fn skip_children(&self, cur: &mut usize, len: u16) -> Children {
        let start = *cur as u32;
        for _ in 0..len {
            self.skip(cur);
        }
        Children { start, len }
    }

    /// Skips one descriptor, advancing `cur`.
    fn skip(&self, cur: &mut usize) {
        let op = self.bytes[*cur];
        *cur += 1;
        match op {
            OP_PRIM => {}
            OP_PARAM => *cur += 2,
            OP_TUPLE => {
                let len = self.read_u16(cur);
                self.skip_children(cur, len);
            }
            OP_DATA => {
                *cur += 4;
                let len = u16::from(self.bytes[*cur]);
                *cur += 1;
                self.skip_children(cur, len);
            }
            OP_ARROW => {
                self.skip(cur);
                self.skip(cur);
            }
            other => panic!("corrupt descriptor opcode {other}"),
        }
    }

    fn read_u16(&self, cur: &mut usize) -> u16 {
        let v = u16::from_le_bytes([self.bytes[*cur], self.bytes[*cur + 1]]);
        *cur += 2;
        v
    }

    fn read_u32(&self, cur: &mut usize) -> u32 {
        let v = u32::from_le_bytes([
            self.bytes[*cur],
            self.bytes[*cur + 1],
            self.bytes[*cur + 2],
            self.bytes[*cur + 3],
        ]);
        *cur += 4;
        v
    }
}

fn encode_into(
    ty: &Type,
    param_index: &HashMap<ParamId, u16>,
    opaque: &[SchemeId],
    out: &mut Vec<u8>,
) {
    match ty {
        Type::Int | Type::Bool | Type::Unit | Type::Var(_) => out.push(OP_PRIM),
        Type::Param(p) => {
            if opaque.binary_search(&p.scheme).is_ok() {
                out.push(OP_PRIM);
            } else if let Some(i) = param_index.get(p) {
                out.push(OP_PARAM);
                out.extend_from_slice(&i.to_le_bytes());
            } else {
                out.push(OP_PRIM);
            }
        }
        Type::Tuple(ts) => {
            out.push(OP_TUPLE);
            out.extend_from_slice(&(ts.len() as u16).to_le_bytes());
            for t in ts {
                encode_into(t, param_index, opaque, out);
            }
        }
        Type::Data(d, ts) => {
            out.push(OP_DATA);
            out.extend_from_slice(&d.0.to_le_bytes());
            out.push(ts.len() as u8);
            for t in ts {
                encode_into(t, param_index, opaque, out);
            }
        }
        Type::Arrow(a, b) => {
            out.push(OP_ARROW);
            encode_into(a, param_index, opaque, out);
            encode_into(b, param_index, opaque, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfgc_ir::lower;
    use tfgc_syntax::parse_program;
    use tfgc_types::elaborate;

    fn prog(src: &str) -> IrProgram {
        lower(&elaborate(&parse_program(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn roundtrip_int_list() {
        let p = prog("[1]");
        let mut pool = BytePool::new(&p);
        let pos = pool.encode_type(&Type::list(Type::Int), &HashMap::new(), &[]);
        let mut n = 0;
        match pool.parse(pos, &mut n) {
            DescView::Data(d, args) => {
                assert_eq!(d, tfgc_types::LIST_DATA);
                assert_eq!(args.len(), 1);
                let arg: Vec<u32> = pool.children(args).collect();
                assert_eq!(pool.parse(arg[0], &mut n), DescView::Prim);
            }
            other => panic!("expected data, got {other:?}"),
        }
        assert!(n > 0, "interpretation reads bytes");
    }

    #[test]
    fn parse_counts_the_whole_descriptor_but_an_arrows_result() {
        let p = prog("0");
        let mut pool = BytePool::new(&p);
        let pair = Type::Tuple(vec![Type::Int, Type::list(Type::Int)]);
        let pos = pool.encode_type(&pair, &HashMap::new(), &[]);
        // TUPLE u16 | PRIM | DATA u32 u8 PRIM
        let mut n = 0;
        let DescView::Tuple(fields) = pool.parse(pos, &mut n) else {
            panic!("expected a tuple");
        };
        assert_eq!(n, 3 + 1 + 7);
        let before = n;
        assert_eq!(pool.children(fields).count(), 2);
        assert_eq!(n, before, "reading the children again counts nothing");

        let arrow = pool.encode_type(&Type::arrow(pair, Type::Int), &HashMap::new(), &[]);
        let mut m = 0;
        let DescView::Arrow(a, b) = pool.parse(arrow, &mut m) else {
            panic!("expected an arrow");
        };
        assert_eq!((a, b), (arrow + 1, arrow + 12));
        assert_eq!(m, 1 + 11, "the result descriptor is parsed on demand");
    }

    #[test]
    fn encoding_dedups() {
        let p = prog("[1]");
        let mut pool = BytePool::new(&p);
        let a = pool.encode_type(&Type::list(Type::Int), &HashMap::new(), &[]);
        let before = pool.size_bytes();
        let b = pool.encode_type(&Type::list(Type::Int), &HashMap::new(), &[]);
        assert_eq!(a, b);
        assert_eq!(pool.size_bytes(), before);
    }

    #[test]
    fn data_tables_describe_cons() {
        let p = prog("[1]");
        let pool = BytePool::new(&p);
        // list: Nil has no fields; Cons has [PARAM 0, DATA list [PARAM 0]].
        let cons = &pool.data_fields[0][1];
        assert_eq!(cons.len(), 2);
        let mut n = 0;
        assert_eq!(pool.parse(cons[0], &mut n), DescView::Param(0));
        match pool.parse(cons[1], &mut n) {
            DescView::Data(d, args) => {
                assert_eq!(d, tfgc_types::LIST_DATA);
                let arg: Vec<u32> = pool.children(args).collect();
                assert_eq!(pool.parse(arg[0], &mut n), DescView::Param(0));
            }
            other => panic!("expected data, got {other:?}"),
        }
    }

    #[test]
    fn tuple_field_positions_are_sequential() {
        let p = prog("0");
        let mut pool = BytePool::new(&p);
        let pos = pool.encode_type(
            &Type::Tuple(vec![Type::Int, Type::list(Type::Int), Type::Bool]),
            &HashMap::new(),
            &[],
        );
        let mut n = 0;
        match pool.parse(pos, &mut n) {
            DescView::Tuple(fields) => {
                let fields: Vec<u32> = pool.children(fields).collect();
                assert_eq!(fields.len(), 3);
                assert_eq!(pool.parse(fields[0], &mut n), DescView::Prim);
                assert!(matches!(
                    pool.parse(fields[1], &mut n),
                    DescView::Data(_, _)
                ));
                assert_eq!(pool.parse(fields[2], &mut n), DescView::Prim);
            }
            other => panic!("expected tuple, got {other:?}"),
        }
    }

    #[test]
    fn arrow_roundtrip() {
        let p = prog("0");
        let mut pool = BytePool::new(&p);
        let pos = pool.encode_type(
            &Type::arrow(Type::list(Type::Int), Type::Int),
            &HashMap::new(),
            &[],
        );
        let mut n = 0;
        match pool.parse(pos, &mut n) {
            DescView::Arrow(a, _) => {
                assert!(matches!(pool.parse(a, &mut n), DescView::Data(_, _)));
            }
            other => panic!("expected arrow, got {other:?}"),
        }
    }
}
