(* Byte-accurate encoder/decoder for BISA instructions.

   [encode] demands fully resolved operands ([Imm]); the assembler and the
   binary rewriter resolve symbols (or leave a zero placeholder plus a
   relocation) before coming here.  [decode] is total over well-formed
   code and raises [Decode_error] otherwise; round-tripping preserves both
   the instruction and its encoded size, which the rewriter depends on. *)

open Insn

exception Decode_error of int (* position *)
exception Encoding_overflow of string

let fits_i8 n = n >= -128 && n <= 127
let fits_i32 n = n >= -0x8000_0000 && n <= 0x7fff_ffff

let imm_exn what = function
  | Imm n -> n
  | Sym (s, _) ->
      invalid_arg (Printf.sprintf "Codec.encode: unresolved symbol %s in %s" s what)

let put8 b pos v = Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff))

let put_i8 b pos v =
  if not (fits_i8 v) then raise (Encoding_overflow "i8");
  put8 b pos v

(* Multi-byte fields go through the stdlib's batched little-endian
   accessors (single bounds check + word store), not a byte loop — the
   encode path runs once per instruction per rewrite. *)

let put_i32 b pos v =
  if not (fits_i32 v) then raise (Encoding_overflow "i32");
  Bytes.set_int32_le b pos (Int32.of_int v)

let put_i64 b pos v = Bytes.set_int64_le b pos (Int64.of_int v)

let get8 b pos = Char.code (Bytes.get b pos)

let get_i8 b pos =
  let v = get8 b pos in
  if v >= 128 then v - 256 else v

let get_i32 b pos = Int32.to_int (Bytes.get_int32_le b pos)

let get_i64 b pos = Int64.to_int (Bytes.get_int64_le b pos)

(* Encode [i] into [b] at [pos]; returns the number of bytes written. *)
let encode_into b pos i =
  let n = size i in
  (match i with
  | Halt -> put8 b pos 0x01
  | Nop 1 -> put8 b pos 0x02
  | Nop k ->
      if k < 2 || k > 15 then invalid_arg "Codec.encode: nop size";
      put8 b pos 0x03;
      put8 b (pos + 1) k;
      for j = 2 to k - 1 do
        put8 b (pos + j) 0x90
      done
  | Ret -> put8 b pos 0x04
  | Repz_ret ->
      put8 b pos 0x05;
      put8 b (pos + 1) 0x04
  | Push r ->
      put8 b pos 0x06;
      put8 b (pos + 1) (Reg.to_int r)
  | Pop r ->
      put8 b pos 0x07;
      put8 b (pos + 1) (Reg.to_int r)
  | Mov_rr (d, s) ->
      put8 b pos 0x08;
      put8 b (pos + 1) ((Reg.to_int d lsl 4) lor Reg.to_int s)
  | Mov_ri (d, v, I64) ->
      put8 b pos 0x09;
      put8 b (pos + 1) (Reg.to_int d);
      put_i64 b (pos + 2) (imm_exn "movabs" v)
  | Mov_ri (d, v, I32) ->
      put8 b pos 0x0A;
      put8 b (pos + 1) (Reg.to_int d);
      put_i32 b (pos + 2) (imm_exn "mov" v)
  | Load (d, base, off) ->
      put8 b pos 0x0B;
      put8 b (pos + 1) ((Reg.to_int d lsl 4) lor Reg.to_int base);
      put_i32 b (pos + 2) off
  | Store (base, off, s) ->
      put8 b pos 0x0C;
      put8 b (pos + 1) ((Reg.to_int s lsl 4) lor Reg.to_int base);
      put_i32 b (pos + 2) off
  | Load_abs (d, v) ->
      put8 b pos 0x0D;
      put8 b (pos + 1) (Reg.to_int d);
      put_i32 b (pos + 2) (imm_exn "load_abs" v)
  | Store_abs (v, s) ->
      put8 b pos 0x0E;
      put8 b (pos + 1) (Reg.to_int s);
      put_i32 b (pos + 2) (imm_exn "store_abs" v)
  | Lea (d, v) ->
      put8 b pos 0x0F;
      put8 b (pos + 1) (Reg.to_int d);
      put_i32 b (pos + 2) (imm_exn "lea" v)
  | Lea_rel (d, v) ->
      put8 b pos 0x56;
      put8 b (pos + 1) (Reg.to_int d);
      put_i32 b (pos + 2) (imm_exn "lea_rel" v)
  | Alu_rr (op, d, s) ->
      put8 b pos (0x10 + alu_code op);
      put8 b (pos + 1) ((Reg.to_int d lsl 4) lor Reg.to_int s)
  | Alu_ri (op, d, v) ->
      put8 b pos (0x20 + alu_code op);
      put8 b (pos + 1) (Reg.to_int d);
      put_i32 b (pos + 2) (imm_exn "alu_ri" v)
  | Setcc (c, r) ->
      put8 b pos 0x57;
      put8 b (pos + 1) ((Cond.to_int c lsl 4) lor Reg.to_int r)
  | Jmp (v, W8) ->
      put8 b pos 0x30;
      put_i8 b (pos + 1) (imm_exn "jmp8" v)
  | Jmp (v, W32) ->
      put8 b pos 0x31;
      put_i32 b (pos + 1) (imm_exn "jmp" v)
  | Jcc (c, v, W8) ->
      put8 b pos (0x40 + Cond.to_int c);
      put_i8 b (pos + 1) (imm_exn "jcc8" v)
  | Jcc (c, v, W32) ->
      put8 b pos (0x48 + Cond.to_int c);
      put8 b (pos + 1) 0;
      put_i32 b (pos + 2) (imm_exn "jcc" v)
  | Call v ->
      put8 b pos 0x50;
      put_i32 b (pos + 1) (imm_exn "call" v)
  | Call_ind r ->
      put8 b pos 0x51;
      put8 b (pos + 1) (Reg.to_int r)
  | Call_mem v ->
      put8 b pos 0x52;
      put8 b (pos + 1) 0;
      put_i32 b (pos + 2) (imm_exn "call_mem" v)
  | Jmp_ind r ->
      put8 b pos 0x53;
      put8 b (pos + 1) (Reg.to_int r)
  | Jmp_mem v ->
      put8 b pos 0x54;
      put8 b (pos + 1) 0;
      put_i32 b (pos + 2) (imm_exn "jmp_mem" v)
  | In_ r ->
      put8 b pos 0x60;
      put8 b (pos + 1) (Reg.to_int r)
  | Out r ->
      put8 b pos 0x61;
      put8 b (pos + 1) (Reg.to_int r)
  | Throw -> put8 b pos 0x62);
  n

let encode i =
  let b = Bytes.make (size i) '\x00' in
  ignore (encode_into b 0 i);
  b

(* The register fields of the byte after the opcode.  Top-level, so a
   decode allocates nothing but the instruction. *)
let reg_hi b pos = Reg.of_int (get8 b (pos + 1) lsr 4)
let reg_lo b pos = Reg.of_int (get8 b (pos + 1) land 0x0f)

(* Decode the instruction at [pos]. *)
let decode_insn b pos =
  let opc = get8 b pos in
  match opc with
  | 0x01 -> Halt
  | 0x02 -> Nop 1
  | 0x03 ->
      let k = get8 b (pos + 1) in
      if k < 2 || k > 15 then raise (Decode_error pos);
      Nop k
  | 0x04 -> Ret
  | 0x05 -> Repz_ret
  | 0x06 -> Push (reg_lo b pos)
  | 0x07 -> Pop (reg_lo b pos)
  | 0x08 -> Mov_rr (reg_hi b pos, reg_lo b pos)
  | 0x09 -> Mov_ri (reg_lo b pos, Imm (get_i64 b (pos + 2)), I64)
  | 0x0A -> Mov_ri (reg_lo b pos, Imm (get_i32 b (pos + 2)), I32)
  | 0x0B -> Load (reg_hi b pos, reg_lo b pos, get_i32 b (pos + 2))
  | 0x0C -> Store (reg_lo b pos, get_i32 b (pos + 2), reg_hi b pos)
  | 0x0D -> Load_abs (reg_lo b pos, Imm (get_i32 b (pos + 2)))
  | 0x0E -> Store_abs (Imm (get_i32 b (pos + 2)), reg_lo b pos)
  | 0x0F -> Lea (reg_lo b pos, Imm (get_i32 b (pos + 2)))
  | 0x56 -> Lea_rel (reg_lo b pos, Imm (get_i32 b (pos + 2)))
  | op when op >= 0x10 && op <= 0x1B ->
      Alu_rr (alu_of_code (op - 0x10), reg_hi b pos, reg_lo b pos)
  | 0x57 ->
      let v = get8 b (pos + 1) in
      Setcc (Cond.of_int (v lsr 4), Reg.of_int (v land 0x0f))
  | op when op >= 0x20 && op <= 0x2B ->
      Alu_ri (alu_of_code (op - 0x20), reg_lo b pos, Imm (get_i32 b (pos + 2)))
  | 0x30 -> Jmp (Imm (get_i8 b (pos + 1)), W8)
  | 0x31 -> Jmp (Imm (get_i32 b (pos + 1)), W32)
  | op when op >= 0x40 && op <= 0x45 ->
      Jcc (Cond.of_int (op - 0x40), Imm (get_i8 b (pos + 1)), W8)
  | op when op >= 0x48 && op <= 0x4D ->
      Jcc (Cond.of_int (op - 0x48), Imm (get_i32 b (pos + 2)), W32)
  | 0x50 -> Call (Imm (get_i32 b (pos + 1)))
  | 0x51 -> Call_ind (reg_lo b pos)
  | 0x52 -> Call_mem (Imm (get_i32 b (pos + 2)))
  | 0x53 -> Jmp_ind (reg_lo b pos)
  | 0x54 -> Jmp_mem (Imm (get_i32 b (pos + 2)))
  | 0x60 -> In_ (reg_lo b pos)
  | 0x61 -> Out (reg_lo b pos)
  | 0x62 -> Throw
  | _ -> raise (Decode_error pos)

(* Decode the instruction at [pos]; returns it with its encoded size. *)
let decode b pos =
  let i = decode_insn b pos in
  (i, size i)

(* The bounds check of the byte accessors, for the last byte [decode]
   reads of a [k]-byte encoding. *)
let need b pos k = if pos + k > Bytes.length b then invalid_arg "index out of bounds"

(* [snd (decode b pos)] without building the instruction.  It reads
   the bytes [decode] reads and raises as it does: [Decode_error] for a
   bad opcode or nop size, [Invalid_argument] for a bad condition field
   or an encoding cut off by the end of [b].  Like [decode], it reads
   only the opcode of [repz ret] and only the size byte of a long nop. *)
let length b pos =
  match get8 b pos with
  | 0x01 | 0x02 | 0x04 | 0x62 -> 1
  | 0x05 -> 2
  | 0x03 ->
      let k = get8 b (pos + 1) in
      if k < 2 || k > 15 then raise (Decode_error pos);
      k
  | 0x57 ->
      ignore (Cond.of_int (get8 b (pos + 1) lsr 4));
      2
  | 0x06 | 0x07 | 0x08 | 0x30 | 0x51 | 0x53 | 0x60 | 0x61 ->
      need b pos 2;
      2
  | op when (op >= 0x10 && op <= 0x1B) || (op >= 0x40 && op <= 0x45) ->
      need b pos 2;
      2
  | 0x31 | 0x50 ->
      need b pos 5;
      5
  | 0x0A | 0x0B | 0x0C | 0x0D | 0x0E | 0x0F | 0x52 | 0x54 | 0x56 ->
      need b pos 6;
      6
  | op when (op >= 0x20 && op <= 0x2B) || (op >= 0x48 && op <= 0x4D) ->
      need b pos 6;
      6
  | 0x09 ->
      need b pos 10;
      10
  | _ -> raise (Decode_error pos)

(* [size] bytes at [base], decoded front to back: instruction [k < n]
   is [insns.(k)] and spans [offs.(k), offs.(k + 1)), offsets relative
   to [base].  Decoding stops at the first undecodable instruction or
   one that runs off the buffer; [complete] says whether it reached
   [size] (the last instruction may end past it). *)
type run = { n : int; offs : int array; insns : t array; complete : bool }

(* The offsets of the nonzero bytes of [marks], in increasing order: how
   a byte-per-offset leader set becomes a sorted array. *)
let marked marks =
  let n = ref 0 in
  for o = 0 to Bytes.length marks - 1 do
    if Bytes.unsafe_get marks o <> '\000' then incr n
  done;
  let a = Array.make !n 0 in
  let k = ref 0 in
  for o = 0 to Bytes.length marks - 1 do
    if Bytes.unsafe_get marks o <> '\000' then begin
      Array.unsafe_set a !k o;
      incr k
    end
  done;
  a

let decode_run b ~base ~size =
  let offs = ref (Array.make ((size / 4) + 2) 0) in
  let insns = ref (Array.make ((size / 4) + 1) Halt) in
  let n = ref 0 and pos = ref 0 and complete = ref true in
  while !complete && !pos < size do
    match decode_insn b (base + !pos) with
    | i ->
        if !n = Array.length !insns then begin
          let grow a fill =
            let a' = Array.make (2 * Array.length a) fill in
            Array.blit a 0 a' 0 (Array.length a);
            a'
          in
          insns := grow !insns Halt;
          offs := grow !offs 0
        end;
        !insns.(!n) <- i;
        pos := !pos + Insn.size i;
        incr n;
        !offs.(!n) <- !pos
    | exception (Decode_error _ | Invalid_argument _) -> complete := false
  done;
  { n = !n; offs = !offs; insns = !insns; complete = !complete }

(* Location of the immediate operand inside the encoding, with its width in
   bytes and its addressing kind.  Relocation plumbing in the assembler and
   the rewriter is driven by this. *)

type operand_kind =
  | Op_none
  | Op_abs of int * int (* byte offset within the encoding, width *)
  | Op_rel of int * int (* pc-relative, measured from end of insn *)

let operand_kind = function
  | Mov_ri (_, _, I64) -> Op_abs (2, 8)
  | Mov_ri (_, _, I32) -> Op_abs (2, 4)
  | Load_abs _ | Store_abs _ | Lea _ -> Op_abs (2, 4)
  | Call_mem _ | Jmp_mem _ -> Op_abs (2, 4)
  | Lea_rel _ -> Op_rel (2, 4)
  | Alu_ri _ -> Op_abs (2, 4)
  | Jmp (_, W8) -> Op_rel (1, 1)
  | Jmp (_, W32) -> Op_rel (1, 4)
  | Jcc (_, _, W8) -> Op_rel (1, 1)
  | Jcc (_, _, W32) -> Op_rel (2, 4)
  | Call _ -> Op_rel (1, 4)
  | _ -> Op_none
