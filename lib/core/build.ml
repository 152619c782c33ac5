(* Function discovery, disassembly and CFG construction (§3.3, Figure 3).

   Discovery is the paper's hybrid: every Func symbol in the symbol table,
   plus any frame descriptor whose code range has no symbol (functions
   written in assembly often lack one or the other).

   CFG construction decodes each function linearly, finds leaders, and
   recovers jump tables for register-indirect jumps by pattern-matching
   the bounds-check + table-load idiom — including PIC tables whose
   relocations the linker dropped.  When an indirect jump cannot be
   resolved (e.g. an indirect tail call), the function is marked
   non-simple and kept byte-identical, exactly like the real BOLT (§6.4's
   heat-map discussion).  Non-simple functions still get their calls and
   PC-relative data references symbolized so they can be relocated as a
   unit in relocations mode. *)

open Bolt_isa
open Bolt_obj
open Bfunc

let lbl off = Printf.sprintf ".LBB%d" off

(* A function's bytes decoded in full, or [None] when some instruction
   does not decode (or runs off the section). *)
let decode_function (text : Types.section) ~addr ~size =
  let d = Codec.decode_run text.sec_data ~base:(addr - text.sec_addr) ~size in
  if d.Codec.complete then Some d else None

(* ---- jump table discovery ---- *)

(* Scan backwards from an indirect jump for the switch idiom:
     cmp r, #lo ; jlt default ; cmp r, #hi ; jgt default ;
     [sub r, #lo] ; shl r, 3 ; lea rb, table ; add r, rb ;
     load r, [r] ; [add r, rb] ; jmp *r

   [Jt_found] carries (table_addr, pic, entry_count).  [Jt_suspicious]
   means table-like evidence (a .rodata base, or a memory load feeding
   the jump) without the full idiom: the jump probably reads a table we
   cannot recover, so the function must not be moved.  [Jt_absent] is a
   plain computed target — an indirect tail call through a register —
   which is safe to relocate verbatim. *)
type jt_scan = Jt_found of int * bool * int | Jt_suspicious | Jt_absent

let find_jump_table ctx (d : Codec.run) idx fb_addr =
  let lo_bound = ref None and hi_bound = ref None in
  let table = ref None in
  let saw_load = ref false in
  let start = max 0 (idx - 12) in
  for k = idx - 1 downto start do
    match d.insns.(k) with
    | Insn.Alu_ri (Insn.Cmp, _, Insn.Imm v) -> (
        (* the first cmp hit walking backwards is the hi bound *)
        match !hi_bound with
        | None -> hi_bound := Some v
        | Some _ -> if !lo_bound = None then lo_bound := Some v)
    | Insn.Lea (_, Insn.Imm a) when Context.in_section ctx.Context.rodata a ->
        if !table = None then table := Some (a, false)
    | Insn.Lea_rel (_, Insn.Imm disp) ->
        let a = fb_addr + d.offs.(k + 1) + disp in
        if !table = None && Context.in_section ctx.Context.rodata a then
          table := Some (a, true)
    | Insn.Load _ | Insn.Load_abs _ -> saw_load := true
    | _ -> ()
  done;
  match (!table, !lo_bound, !hi_bound) with
  | Some (addr, pic), Some lo, Some hi when hi >= lo && hi - lo < 4096 ->
      Jt_found (addr, pic, hi - lo + 1)
  | Some _, _, _ -> Jt_suspicious
  | None, _, _ -> if !saw_load then Jt_suspicious else Jt_absent

(* The function starting at [a], named by the index's alias rule. *)
let entry_at ctx a =
  Option.map (fun (s : Types.symbol) -> s.sym_name) (Symtab.at ctx.Context.syms a)

(* ---- non-simple fallback ---- *)

(* Linear code for a function kept byte-identical, with the references
   that must survive relocation (calls, code addresses) symbolized. *)
let symbolize_raw ctx (fb : Bfunc.t) (d : Codec.run) =
  let minsn k =
    let next_off = d.offs.(k + 1) in
    let r_insn = d.insns.(k) in
    let sym =
      match r_insn with
      | Insn.Call (Insn.Imm rel) -> (
          match entry_at ctx (fb.fb_addr + next_off + rel) with
          | Some fn -> Insn.Call (Insn.Sym (fn, 0))
          | None -> r_insn)
      | Insn.Lea_rel (rg, Insn.Imm disp) -> (
          let a = fb.fb_addr + next_off + disp in
          match entry_at ctx a with
          | Some fn -> Insn.Lea (rg, Insn.Sym (fn, 0))
          | None -> Insn.Lea (rg, Insn.Imm a))
      | Insn.Lea (rg, Insn.Imm a) -> (
          match entry_at ctx a with
          | Some fn -> Insn.Lea (rg, Insn.Sym (fn, 0))
          | None -> r_insn)
      | i -> i
    in
    { op = sym; lp = None; loc = None; cfi_after = []; m_off = d.offs.(k) }
  in
  let acc = ref [] in
  for k = d.n - 1 downto 0 do
    acc := minsn k :: !acc
  done;
  fb.raw_insns <- !acc

(* Re-derive a function's verbatim representation from the input bytes:
   used when quarantining a function whose CFG was already mutated by a
   failing pass.  Leaves [raw_insns] empty when the bytes are undecodable
   (the rewriter then refuses to move the function at all). *)
let redecode ctx (fb : Bfunc.t) =
  match decode_function ctx.Context.text ~addr:fb.fb_addr ~size:fb.fb_size with
  | Some d -> symbolize_raw ctx fb d
  | None -> fb.raw_insns <- []

(* ---- per-function CFG build ----

   One decode into arrays, then each instruction is visited a fixed
   number of times: once to find leaders (marked in a byte per offset),
   once to slice blocks.  Blocks are visited in offset order, so the
   line table, the FDE's ops and the instruction stream are each walked
   by one forward cursor; block-entry frame states are the FDE's ops
   applied in one forward sweep.  Block [b] is the [b]-th leader in
   offset order, so the entry is block 0. *)

let build_function ctx (fb : Bfunc.t) =
  let opts = ctx.Context.opts in
  let text = ctx.Context.text in
  match decode_function text ~addr:fb.fb_addr ~size:fb.fb_size with
  | None ->
      mark_non_simple fb "undecodable bytes";
      fb.raw_insns <- []
  | Some d -> (
      let { Codec.n; offs; insns; _ } = d in
      (* source locations, sorted; [loc_at] answers the last entry at or
         before an offset, for offsets that never decrease *)
      let lines =
        match Objfile.Index.dbg ctx.Context.meta fb.fb_addr with
        | Some d -> Array.of_list d.dbg_entries
        | None -> [||]
      in
      Array.sort compare lines;
      let locs = Array.map (fun (_, f, l) -> Some (f, l)) lines in
      let lc = ref 0 in
      let loc_at off =
        while !lc < Array.length lines && (let o, _, _ = lines.(!lc) in o <= off) do
          incr lc
        done;
        if !lc = 0 then None else locs.(!lc - 1)
      in
      (* CFI ops by the offset at which they take effect, in list order
         within an offset *)
      let fde_ops =
        match Objfile.Index.fde ctx.Context.meta fb.fb_addr with
        | Some f -> f.fde_cfi
        | None -> []
      in
      let rec sorted = function
        | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      let in_order = sorted fde_ops in
      let ops =
        Array.of_list
          (if in_order then fde_ops
           else List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) fde_ops)
      in
      let cc = ref 0 in
      let cfi_after next_off =
        while !cc < Array.length ops && fst ops.(!cc) < next_off do
          incr cc
        done;
        let stop = ref !cc in
        while !stop < Array.length ops && fst ops.(!stop) = next_off do
          incr stop
        done;
        let acc = ref [] in
        for k = !stop - 1 downto !cc do
          acc := snd ops.(k) :: !acc
        done;
        cc := !stop;
        !acc
      in
      (* the frame state on entry to each leader: every op at or before
         it applied in order — one sweep when the ops are sorted *)
      let ce = ref 0 and est = ref Types.initial_cfi_state in
      let entry_state leader =
        if in_order then begin
          while !ce < Array.length ops && fst ops.(!ce) <= leader do
            est := Types.cfi_apply !est (snd ops.(!ce));
            incr ce
          done;
          !est
        end
        else Types.cfi_state_at fde_ops leader
      in
      let lsda = Objfile.Index.lsda ctx.Context.meta fb.fb_addr in
      (* symbolize a call target; raises Exit when impossible *)
      let call_target addr =
        match entry_at ctx addr with Some name -> name | None -> raise Exit
      in
      let in_func off = off >= 0 && off < fb.fb_size in
      (* jump tables, with the indirect jump's instruction index *)
      let jts = ref [] in
      let jt_of_idx = ref [] in
      (try
         (* pass 1: control-flow targets and jump tables *)
         let leader = Bytes.make fb.fb_size '\000' in
         let add_leader o = if in_func o then Bytes.unsafe_set leader o '\001' in
         add_leader 0;
         for i = 0 to n - 1 do
           let next = offs.(i + 1) in
           match insns.(i) with
           | Insn.Jmp (Insn.Imm rel, _) | Insn.Jcc (_, Insn.Imm rel, _) ->
               let t = next + rel in
               if in_func t then add_leader t
               else ignore (call_target (fb.fb_addr + t));
               add_leader next
           | Insn.Jmp_ind _ -> (
               match find_jump_table ctx d i fb.fb_addr with
               | Jt_found (taddr, pic, count) ->
                   let entries = Array.make count 0 in
                   let ok = ref true in
                   for k = 0 to count - 1 do
                     match Context.section_value ctx ctx.Context.rodata (taddr + (8 * k)) with
                     | Some v ->
                         let target = if pic then taddr + v else v in
                         let off = target - fb.fb_addr in
                         if in_func off then entries.(k) <- off else ok := false
                     | None -> ok := false
                   done;
                   if not !ok then begin
                     mark_non_simple fb "invalid jump table entries";
                     fb.table_unrecovered <- true;
                     raise Exit
                   end;
                   Array.iter add_leader entries;
                   jt_of_idx := (i, List.length !jts) :: !jt_of_idx;
                   jts := (taddr, pic, entries) :: !jts;
                   add_leader next
               | Jt_suspicious ->
                   mark_non_simple fb "unrecoverable jump table";
                   fb.table_unrecovered <- true;
                   raise Exit
               | Jt_absent ->
                   mark_non_simple fb
                     "unresolved indirect jump (possible indirect tail call)";
                   raise Exit)
           | Insn.Jmp_mem _ ->
               mark_non_simple fb "jump through memory outside PLT";
               raise Exit
           | Insn.Call (Insn.Imm rel) -> ignore (call_target (fb.fb_addr + next + rel))
           | Insn.Ret | Insn.Repz_ret | Insn.Halt | Insn.Throw -> add_leader next
           | _ -> ()
         done;
         (match lsda with
         | Some l ->
             List.iter (fun (e : Types.lsda_entry) -> add_leader e.lsda_pad) l.lsda_entries;
             fb.has_eh <- true
         | None -> ());
         (* leaders in offset order: block [b] starts at [lead.(b)] *)
         let lead = Codec.marked leader in
         let nb = Array.length lead in
         (* the block id of a leader offset *)
         let id_of off =
           let lo = ref 0 and hi = ref (nb - 1) in
           while !lo < !hi do
             let mid = (!lo + !hi) / 2 in
             if lead.(mid) < off then lo := mid + 1 else hi := mid
           done;
           !lo
         in
         (* landing-pad ranges with their pad ids (-1 for a pad outside
            the function); the first range in table order that covers an
            offset wins *)
         let pads =
           match lsda with
           | Some l ->
               Array.of_list
                 (List.map
                    (fun (e : Types.lsda_entry) ->
                      ( e.lsda_start,
                        e.lsda_start + e.lsda_len,
                        if in_func e.lsda_pad then id_of e.lsda_pad else -1 ))
                    l.lsda_entries)
           | None -> [||]
         in
         let lp_at off =
           let rec go k =
             if k = Array.length pads then None
             else
               let s, e, p = pads.(k) in
               if off >= s && off < e then Some p else go (k + 1)
           in
           go 0
         in
         let keep i op acc =
           let r_off = offs.(i) in
           {
             op;
             lp =
               (match insns.(i) with
               | Insn.Call _ | Insn.Call_ind _ | Insn.Call_mem _ | Insn.Throw ->
                   lp_at r_off
               | _ -> None);
             loc = loc_at r_off;
             cfi_after = cfi_after offs.(i + 1);
             m_off = r_off;
           }
           :: acc
         in
         (* pass 2: slice blocks; [j] walks the instructions *)
         let j = ref 0 in
         let blocks = ref [] in
         for b = 0 to nb - 1 do
           let leader = lead.(b) in
           let stop = if b + 1 < nb then lead.(b + 1) else fb.fb_size in
           while !j < n && offs.(!j) < leader do
             incr j
           done;
           if !j = n || offs.(!j) <> leader then begin
             mark_non_simple fb "leader inside an instruction";
             raise Exit
           end;
           let acc = ref [] in
           let term = ref None in
           while Option.is_none !term && !j < n && offs.(!j) < stop do
             let i = !j in
             let r_insn = insns.(i) in
             let next_off = offs.(i + 1) in
             (match r_insn with
             | Insn.Nop _ -> if not opts.Opts.strip_nops then acc := keep i r_insn !acc
             | Insn.Jmp (Insn.Imm rel, _) ->
                 let t = next_off + rel in
                 if in_func t then term := Some (T_jump (id_of t))
                 else begin
                   (* direct tail call *)
                   let fn = call_target (fb.fb_addr + t) in
                   acc := keep i (Insn.Jmp (Insn.Sym (fn, 0), Insn.W32)) !acc;
                   term := Some T_stop
                 end
             | Insn.Jcc (c, Insn.Imm rel, _) ->
                 let t = next_off + rel in
                 let fall =
                   if in_func next_off then id_of next_off
                   else begin
                     mark_non_simple fb "conditional branch at function end";
                     raise Exit
                   end
                 in
                 if in_func t then term := Some (T_cond (c, id_of t, fall))
                 else term := Some (T_condtail (c, call_target (fb.fb_addr + t), fall))
             | Insn.Jmp_ind _ ->
                 acc := keep i r_insn !acc;
                 term := Some (T_indirect (List.assoc_opt i !jt_of_idx))
             | Insn.Ret | Insn.Repz_ret | Insn.Halt | Insn.Throw ->
                 acc := keep i r_insn !acc;
                 term := Some T_stop
             | Insn.Call (Insn.Imm rel) ->
                 let fn = call_target (fb.fb_addr + next_off + rel) in
                 acc := keep i (Insn.Call (Insn.Sym (fn, 0))) !acc
             | Insn.Lea_rel (rg, Insn.Imm disp) ->
                 (* rewrite PIC address materialisation to absolute: the
                    instruction is about to move, the data is not *)
                 let a = fb.fb_addr + next_off + disp in
                 acc :=
                   keep i
                     (match entry_at ctx a with
                     | Some fn -> Insn.Lea (rg, Insn.Sym (fn, 0))
                     | None -> Insn.Lea (rg, Insn.Imm a))
                     !acc
             | Insn.Lea (rg, Insn.Imm a) -> (
                 (* function pointers must stay symbolic: the target is
                    about to move *)
                 match entry_at ctx a with
                 | Some fn -> acc := keep i (Insn.Lea (rg, Insn.Sym (fn, 0))) !acc
                 | None when Symtab.covering ctx.Context.syms a <> None ->
                     mark_non_simple fb "address of code taken mid-function";
                     raise Exit
                 | None -> acc := keep i r_insn !acc)
             | _ -> acc := keep i r_insn !acc);
             incr j
           done;
           let term =
             match !term with
             | Some t -> t
             | None ->
                 if stop >= fb.fb_size then begin
                   mark_non_simple fb "control falls off the function end";
                   raise Exit
                 end
                 else T_jump (b + 1)
           in
           blocks :=
             new_block ~off:leader ~cfi_entry:(entry_state leader) (lbl leader)
               (List.rev !acc) term
             :: !blocks
         done;
         fb.blocks <- Array.of_list (List.rev !blocks);
         (* jump tables, now that ids exist *)
         fb.jts <-
           Array.of_list
             (List.rev_map
                (fun (addr, pic, entries) ->
                  {
                    jt_addr = addr;
                    jt_pic = pic;
                    jt_targets = Array.map id_of entries;
                    jt_offsets = entries;
                  })
                !jts);
         Array.iter (fun (_, _, p) -> if p >= 0 then fb.blocks.(p).is_lp <- true) pads;
         fb.layout <- Array.init nb Fun.id
       with Exit ->
         if fb.why_not_simple = "" then
           mark_non_simple fb "unresolvable code reference";
         clear_cfg fb);
      (* Non-simple fallback: keep bytes identical, but symbolize the
         references that must survive relocation. *)
      if not fb.simple then symbolize_raw ctx fb d)

(* ---- discovery ---- *)

let discover ctx =
  let exe = ctx.Context.exe in
  let seen = Hashtbl.create 256 in
  let found = ref [] in
  let text = ctx.Context.text in
  let text_end = text.sec_addr + text.sec_size in
  let add name addr size =
    (* a symbol table from a damaged binary can claim ranges outside .text;
       decoding those would read out of bounds, so clamp or drop here *)
    if addr < text.sec_addr || addr >= text_end then begin
      if size > 0 then
        Diag.warnf ctx.Context.diag ~stage:"discover" ~func:name
          "function at %#x lies outside .text [%#x, %#x); skipped" addr
          text.sec_addr text_end
    end
    else begin
      let size =
        if addr + size > text_end then begin
          Diag.warnf ctx.Context.diag ~stage:"discover" ~func:name
            "function at %#x size %d overruns .text; clamped to %d" addr size
            (text_end - addr);
          text_end - addr
        end
        else size
      in
      if size > 0 && not (Hashtbl.mem seen addr) then begin
        Hashtbl.replace seen addr ();
        found := Bfunc.create ~name ~addr ~size :: !found
      end
    end
  in
  (* symbol-table functions (skip PLT stubs: they are kept verbatim); of
     several symbols at one start, only the one the index names *)
  List.iter
    (fun (s : Types.symbol) ->
      if s.sym_kind = Types.Func && s.sym_section = ".text" then
        match entry_at ctx s.sym_value with
        | Some owner when owner <> s.sym_name -> ()
        | _ -> add s.sym_name s.sym_value s.sym_size)
    exe.symbols;
  (* frame-info-only functions: the hybrid half of discovery *)
  List.iter
    (fun (f : Types.fde) ->
      if
        f.fde_size > 0
        && f.fde_addr >= ctx.Context.text.sec_addr
        && f.fde_addr < ctx.Context.text.sec_addr + ctx.Context.text.sec_size
        && not (Hashtbl.mem seen f.fde_addr)
      then
        add
          (if f.fde_func <> "" then f.fde_func
           else Printf.sprintf "__unknown_%x" f.fde_addr)
          f.fde_addr f.fde_size)
    exe.fdes;
  (* ids in address order; no two functions share a start *)
  Context.set_funcs ctx
    (Array.of_list
       (List.sort (fun (a : Bfunc.t) b -> compare a.fb_addr b.fb_addr) !found))

(* The build-cfg pass's visitor: build one function's CFG, parking
   any failure diagnostic on the worker's shard.  CFG construction must
   never take the run down: on an escaping exception the function keeps
   its input bytes. *)
let build_fn ctx sh (fb : Bfunc.t) =
  try build_function ctx fb
  with exn ->
    Context.sh_diag sh Diag.Error ~stage:"build" ~func:fb.fb_name
      "CFG construction failed (%s); function kept verbatim"
      (Printexc.to_string exn);
    if fb.simple then mark_non_simple fb "CFG construction failed";
    clear_cfg fb;
    redecode ctx fb
