(* Structural fingerprints for stale-profile matching (the Stale Profile
   Matching recipe: hashes stamped at build time, matched at BOLT time).

   Each function in a linked binary gets a fingerprint derived only from
   its decoded instruction stream:

   - an opcode hash over the operand-insensitive opcode-kind sequence, so
     register renaming, immediate tweaks and displacement drift (the
     no-op recompile case) leave it unchanged;
   - a CFG-shape hash over the basic-block structure (per-block
     terminator class and relative successor positions), which survives
     straight-line edits inside blocks;
   - per-block offsets, sizes and the same two hashes, the raw material
     for block-level offset remapping;
   - the sorted set of direct-call targets, a call-graph-position signal
     for matching renamed functions.

   Fingerprints are stamped into the BELF container at link time and
   re-stamped after every rewrite, and they ride along inside fdata
   shards (copied from the profiled binary) so the optimizer can match a
   stale profile against a drifted binary without ever seeing the old
   binary itself.  Computation is deterministic: same bytes, same
   fingerprints. *)

open Types
module Insn = Bolt_isa.Insn
module Codec = Bolt_isa.Codec

type block = {
  bk_off : int; (* block start, function-relative *)
  bk_size : int;
  bk_opcode_hash : int;
  bk_shape_hash : int;
}

type func = {
  fp_func : string;
  fp_size : int;
  fp_opcode_hash : int; (* whole-function opcode-kind stream *)
  fp_cfg_hash : int; (* shape of the block graph *)
  fp_calls : string list; (* sorted unique direct-call targets *)
  fp_blocks : block list; (* in offset order *)
}

type t = func list

(* ---- hashing ---- *)

(* FNV-style mixing masked to 58 bits: stable across architectures, never
   overflows OCaml's 63-bit int, prints as a short hex token in fdata. *)
let hash_mask = 0x3FF_FFFF_FFFF_FFFF
let hash_empty = 0x1505

let mix h x = (h * 0x0100_0193) lxor (x land hash_mask) land hash_mask

let hash_string h s =
  let acc = ref h in
  String.iter (fun c -> acc := mix !acc (Char.code c)) s;
  !acc

let to_hex h = Printf.sprintf "%x" h
let of_hex s = int_of_string_opt ("0x" ^ s)

(* Operand-insensitive opcode kind.  Registers, immediates, displacement
   widths and NOP sizes are all normalized away; the ALU operation and
   the branch condition are kept (an edit that changes them is a real
   semantic change, not drift). *)
let op_kind (i : Insn.t) =
  match i with
  | Insn.Halt -> 1
  | Insn.Nop _ -> 2
  | Insn.Ret | Insn.Repz_ret -> 3
  | Insn.Push _ -> 4
  | Insn.Pop _ -> 5
  | Insn.Mov_rr _ -> 6
  | Insn.Mov_ri _ -> 7
  | Insn.Load _ -> 8
  | Insn.Store _ -> 9
  | Insn.Load_abs _ -> 10
  | Insn.Store_abs _ -> 11
  | Insn.Lea _ -> 12
  | Insn.Lea_rel _ -> 13
  | Insn.Setcc _ -> 14
  | Insn.In_ _ -> 15
  | Insn.Out _ -> 16
  | Insn.Throw -> 17
  | Insn.Alu_rr (op, _, _) -> 32 + Insn.alu_code op
  | Insn.Alu_ri (op, _, _) -> 48 + Insn.alu_code op
  | Insn.Jmp _ -> 64
  | Insn.Jcc _ -> 65
  | Insn.Call _ -> 66
  | Insn.Call_ind _ -> 67
  | Insn.Call_mem _ -> 68
  | Insn.Jmp_ind _ -> 69
  | Insn.Jmp_mem _ -> 70

(* Terminator class of a block's last instruction, for the shape hash. *)
let term_class (i : Insn.t) =
  match Insn.classify i with
  | Insn.CF_jump -> 1
  | Insn.CF_cond -> 2
  | Insn.CF_ijump -> 3
  | Insn.CF_ret -> 4
  | Insn.CF_halt -> 5
  | Insn.CF_throw -> 6
  | _ -> 0 (* falls through *)

(* ---- per-function computation ---- *)

let fingerprint_fn ~data ~base ~size ~name ~resolve : func =
  (* decoding stops cleanly at the first undecodable byte: non-simple
     functions still get a usable prefix *)
  let { Codec.n; offs; insns; _ } = Codec.decode_run data ~base ~size in
  let in_func o = o >= 0 && o < size in
  (* leaders: entry, intra-function branch targets, post-branch resume *)
  let leader = Bytes.make size '\000' in
  let mark o = if in_func o then Bytes.unsafe_set leader o '\001' in
  mark 0;
  for k = 0 to n - 1 do
    let next = offs.(k + 1) in
    match insns.(k) with
    | Insn.Jmp (Insn.Imm rel, _) | Insn.Jcc (_, Insn.Imm rel, _) ->
        mark (next + rel);
        mark next
    | i -> if Insn.is_terminator i then mark next
  done;
  let starts_arr = Codec.marked leader in
  let nb = Array.length starts_arr in
  let block_end k = if k + 1 < nb then starts_arr.(k + 1) else size in
  (* the block starting at [o], by binary search over the sorted starts *)
  let index_of_start o =
    let lo = ref 0 and hi = ref nb in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if starts_arr.(mid) < o then lo := mid + 1 else hi := mid
    done;
    if !lo < nb && starts_arr.(!lo) = o then Some !lo else None
  in
  let calls = ref [] in
  let func_oh = ref hash_empty in
  (* blocks tile [0, size) in offset order, so one cursor hands each
     instruction to the block its offset falls in *)
  let cursor = ref 0 in
  let blocks =
    Array.to_list
      (Array.mapi
         (fun k start ->
           let stop = block_end k in
           let oh = ref hash_empty in
           let last = ref (-1) in
           while !cursor < n && offs.(!cursor) < stop do
             let i = insns.(!cursor) in
             last := !cursor;
             incr cursor;
             oh := mix !oh (op_kind i);
             func_oh := mix !func_oh (op_kind i);
             match i with
             | Insn.Call (Insn.Imm rel) -> (
                 match resolve (offs.(!cursor) + rel) with
                 | Some callee -> calls := callee :: !calls
                 | None -> ())
             | _ -> ()
           done;
           (* shape: terminator class + successor positions relative to
              this block, so inserting a block shifts only its
              neighbourhood *)
           let sh = ref hash_empty in
           (if !last >= 0 then begin
              let i = insns.(!last) in
              sh := mix !sh (term_class i);
              let next = offs.(!last + 1) in
              let succ o =
                match index_of_start o with
                | Some j -> sh := mix !sh (j - k + 1024)
                | None -> sh := mix !sh 2048 (* leaves the function *)
              in
              match i with
              | Insn.Jmp (Insn.Imm rel, _) -> succ (next + rel)
              | Insn.Jcc (_, Insn.Imm rel, _) ->
                  succ (next + rel);
                  if in_func next then succ next
              | _ -> if (not (Insn.is_terminator i)) && in_func next then succ next
            end);
           {
             bk_off = start;
             bk_size = stop - start;
             bk_opcode_hash = !oh;
             bk_shape_hash = !sh;
           })
         starts_arr)
  in
  let cfg =
    List.fold_left
      (fun h b -> mix h b.bk_shape_hash)
      (mix hash_empty nb) blocks
  in
  {
    fp_func = name;
    fp_size = size;
    fp_opcode_hash =
      (if n = 0 then
         (* undecodable from byte 0: fall back to a raw-byte hash so even
            opaque functions fingerprint deterministically *)
         hash_string hash_empty (Bytes.sub_string data base size)
       else !func_oh);
    fp_cfg_hash = cfg;
    fp_calls = List.sort_uniq compare !calls;
    fp_blocks = blocks;
  }

(* Fingerprint every function symbol that lies inside a text section;
   a direct call names the function [Symtab.covering] its target.  Only
   sections and symbols are consulted, so the computation commutes with
   build-id stamping. *)
let compute ~(sections : section list) ~(symbols : symbol list) : t =
  let texts = List.filter (fun s -> s.sec_kind = Text) sections in
  let funcs = Symtab.create symbols in
  let resolve_in addr =
    Option.map (fun s -> s.sym_name) (Symtab.covering funcs addr)
  in
  List.filter_map
    (fun sym ->
      match
        List.find_opt
          (fun s ->
            sym.sym_value >= s.sec_addr
            && sym.sym_value + sym.sym_size <= s.sec_addr + s.sec_size)
          texts
      with
      | None -> None
      | Some sec ->
          let base = sym.sym_value - sec.sec_addr in
          if base < 0 || base + sym.sym_size > Bytes.length sec.sec_data then None
          else
            Some
              (fingerprint_fn ~data:sec.sec_data ~base ~size:sym.sym_size
                 ~name:sym.sym_name
                 ~resolve:(fun off -> resolve_in (sec.sec_addr + base + off))))
    (Array.to_list funcs.Symtab.syms)

(* ---- BELF serialization (v5 payload) ---- *)

let write b (f : func) =
  Buf.str b f.fp_func;
  Buf.i64 b f.fp_size;
  Buf.i64 b f.fp_opcode_hash;
  Buf.i64 b f.fp_cfg_hash;
  Buf.list b Buf.str f.fp_calls;
  Buf.list b
    (fun b blk ->
      Buf.i64 b blk.bk_off;
      Buf.i64 b blk.bk_size;
      Buf.i64 b blk.bk_opcode_hash;
      Buf.i64 b blk.bk_shape_hash)
    f.fp_blocks

let read r : func =
  let fp_func = Buf.r_str r in
  let fp_size = Buf.r_i64 r in
  let fp_opcode_hash = Buf.r_i64 r in
  let fp_cfg_hash = Buf.r_i64 r in
  let fp_calls = Buf.r_list r Buf.r_str in
  let fp_blocks =
    Buf.r_list r (fun r ->
        let bk_off = Buf.r_i64 r in
        let bk_size = Buf.r_i64 r in
        let bk_opcode_hash = Buf.r_i64 r in
        let bk_shape_hash = Buf.r_i64 r in
        { bk_off; bk_size; bk_opcode_hash; bk_shape_hash })
  in
  { fp_func; fp_size; fp_opcode_hash; fp_cfg_hash; fp_calls; fp_blocks }

let pp ppf (f : func) =
  Fmt.pf ppf "%-28s %6d bytes  op %-15s cfg %-15s %d block%s@." f.fp_func
    f.fp_size (to_hex f.fp_opcode_hash) (to_hex f.fp_cfg_hash)
    (List.length f.fp_blocks)
    (if List.length f.fp_blocks = 1 then "" else "s");
  List.iter
    (fun b ->
      Fmt.pf ppf "    +%-6x %5d bytes  op %-15s shape %s@." b.bk_off b.bk_size
        (to_hex b.bk_opcode_hash) (to_hex b.bk_shape_hash))
    f.fp_blocks;
  if f.fp_calls <> [] then
    Fmt.pf ppf "    calls: %s@." (String.concat ", " f.fp_calls)
