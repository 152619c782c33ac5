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

type raw = { r_off : int; r_insn : Insn.t; r_size : int }

let decode_function (text : Types.section) ~addr ~size =
  let base = addr - text.sec_addr in
  let insns = ref [] in
  let pos = ref 0 in
  let ok = ref true in
  while !ok && !pos < size do
    match Codec.decode text.sec_data (base + !pos) with
    | i, sz ->
        insns := { r_off = !pos; r_insn = i; r_size = sz } :: !insns;
        pos := !pos + sz
    | exception Codec.Decode_error _ -> ok := false
    (* an instruction straddling the section end reads past the buffer *)
    | exception Invalid_argument _ -> ok := false
  done;
  if !ok then Some (List.rev !insns) else None

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

let find_jump_table ctx (raws : raw array) idx fb_addr =
  let lo_bound = ref None and hi_bound = ref None in
  let table = ref None in
  let saw_load = ref false in
  let start = max 0 (idx - 12) in
  for k = idx - 1 downto start do
    (match raws.(k).r_insn with
    | Insn.Alu_ri (Insn.Cmp, _, Insn.Imm v) -> (
        (* the first cmp hit walking backwards is the hi bound *)
        match !hi_bound with
        | None -> hi_bound := Some v
        | Some _ -> if !lo_bound = None then lo_bound := Some v)
    | Insn.Lea (_, Insn.Imm a) when Context.in_section ctx.Context.rodata a ->
        if !table = None then table := Some (a, false)
    | Insn.Lea_rel (_, Insn.Imm disp) ->
        let a = fb_addr + raws.(k).r_off + raws.(k).r_size + disp in
        if !table = None && Context.in_section ctx.Context.rodata a then
          table := Some (a, true)
    | Insn.Load _ | Insn.Load_abs _ -> saw_load := true
    | _ -> ());
    ()
  done;
  match (!table, !lo_bound, !hi_bound) with
  | Some (addr, pic), Some lo, Some hi when hi >= lo && hi - lo < 4096 ->
      Jt_found (addr, pic, hi - lo + 1)
  | Some _, _, _ -> Jt_suspicious
  | None, _, _ -> if !saw_load then Jt_suspicious else Jt_absent

(* ---- non-simple fallback ---- *)

(* Linear code for a function kept byte-identical, with the references
   that must survive relocation (calls, code addresses) symbolized. *)
let symbolize_raw ctx (fb : Bfunc.t) raw_list =
  fb.raw_insns <-
    List.map
      (fun r ->
        let next_off = r.r_off + r.r_size in
        let sym =
          match r.r_insn with
          | Insn.Call (Insn.Imm rel) -> (
              match Context.resolve_code ctx (fb.fb_addr + next_off + rel) with
              | Some (fn, 0) -> Insn.Call (Insn.Sym (fn, 0))
              | _ -> r.r_insn)
          | Insn.Lea_rel (rg, Insn.Imm disp) -> (
              let a = fb.fb_addr + next_off + disp in
              match Context.resolve_code ctx a with
              | Some (fn, 0) -> Insn.Lea (rg, Insn.Sym (fn, 0))
              | _ -> Insn.Lea (rg, Insn.Imm a))
          | Insn.Lea (rg, Insn.Imm a) -> (
              match Context.resolve_code ctx a with
              | Some (fn, 0) -> Insn.Lea (rg, Insn.Sym (fn, 0))
              | _ -> r.r_insn)
          | i -> i
        in
        { op = sym; lp = None; loc = None; cfi_after = []; m_off = r.r_off })
      raw_list

(* Re-derive a function's verbatim representation from the input bytes:
   used when quarantining a function whose CFG was already mutated by a
   failing pass.  Leaves [raw_insns] empty when the bytes are undecodable
   (the rewriter then refuses to move the function at all). *)
let redecode ctx (fb : Bfunc.t) =
  match decode_function ctx.Context.text ~addr:fb.fb_addr ~size:fb.fb_size with
  | Some raw_list -> symbolize_raw ctx fb raw_list
  | None -> fb.raw_insns <- []

(* ---- per-function CFG build ---- *)

let build_function ctx (fb : Bfunc.t) =
  let opts = ctx.Context.opts in
  let text = ctx.Context.text in
  match decode_function text ~addr:fb.fb_addr ~size:fb.fb_size with
  | None ->
      mark_non_simple fb "undecodable bytes";
      fb.raw_insns <- []
  | Some raw_list -> (
      let raws = Array.of_list raw_list in
      let n = Array.length raws in
      (* source locations *)
      let dbg =
        match Objfile.Index.dbg ctx.Context.meta fb.fb_name with
        | Some d -> d.dbg_entries
        | None -> []
      in
      (* the last entry, in sorted order, at or before [off] *)
      let loc_at =
        let sorted =
          Array.of_list (List.sort compare (List.map (fun (o, f, l) -> (o, (f, l))) dbg))
        in
        fun off ->
          let lo = ref 0 and hi = ref (Array.length sorted) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if fst sorted.(mid) <= off then lo := mid + 1 else hi := mid
          done;
          if !lo = 0 then None else Some (snd sorted.(!lo - 1))
      in
      (* CFI ops keyed by the offset at which they take effect *)
      let fde = Objfile.Index.fde ctx.Context.meta fb.fb_name in
      let cfi_at = Hashtbl.create 16 in
      (match fde with
      | Some f ->
          List.iter
            (fun (o, op) ->
              Hashtbl.replace cfi_at o
                ((try Hashtbl.find cfi_at o with Not_found -> []) @ [ op ]))
            f.fde_cfi
      | None -> ());
      let lsda = Objfile.Index.lsda ctx.Context.meta fb.fb_name in
      (* symbolize a call target; raises Exit when impossible *)
      let call_target addr =
        match Context.resolve_code ctx addr with
        | Some (name, 0) -> name
        | _ -> raise Exit
      in
      let in_func off = off >= 0 && off < fb.fb_size in
      (* jump tables, keyed by the indirect jump's instruction index *)
      let jts = ref [] in
      let jt_of_idx = Hashtbl.create 4 in
      (try
         (* pass 1: control-flow targets and jump tables *)
         let leaders = Hashtbl.create 32 in
         Hashtbl.replace leaders 0 ();
         let add_leader o = if in_func o then Hashtbl.replace leaders o () in
         Array.iteri
           (fun i r ->
             let next = r.r_off + r.r_size in
             match r.r_insn with
             | Insn.Jmp (Insn.Imm rel, _) ->
                 let t = next + rel in
                 if in_func t then add_leader t
                 else ignore (call_target (fb.fb_addr + t));
                 add_leader next
             | Insn.Jcc (_, Insn.Imm rel, _) ->
                 let t = next + rel in
                 if in_func t then add_leader t
                 else ignore (call_target (fb.fb_addr + t));
                 add_leader next
             | Insn.Jmp_ind _ -> (
                 match find_jump_table ctx raws i fb.fb_addr with
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
                     let k = List.length !jts in
                     jts := (taddr, pic, entries) :: !jts;
                     Hashtbl.replace jt_of_idx i k;
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
             | _ -> ())
           raws;
         (match lsda with
         | Some l ->
             List.iter (fun (e : Types.lsda_entry) -> add_leader e.lsda_pad) l.lsda_entries;
             fb.has_eh <- true
         | None -> ());
         (* landing pads for instructions *)
         let lp_at off =
           match lsda with
           | None -> None
           | Some l ->
               List.find_opt
                 (fun (e : Types.lsda_entry) ->
                   off >= e.lsda_start && off < e.lsda_start + e.lsda_len)
                 l.lsda_entries
               |> Option.map (fun e -> lbl e.Types.lsda_pad)
         in
         let leader_list = Hashtbl.fold (fun o () acc -> o :: acc) leaders [] in
         let leader_list = List.sort compare leader_list in
         let next_leader = Hashtbl.create 32 in
         let rec link = function
           | a :: (b :: _ as rest) ->
               Hashtbl.replace next_leader a b;
               link rest
           | _ -> []
         in
         ignore (link leader_list);
         (* index raws by offset for block slicing *)
         let idx_of_off = Hashtbl.create 64 in
         Array.iteri (fun i r -> Hashtbl.replace idx_of_off r.r_off i) raws;
         let cfi_ops_upto o =
           (* list of (off, op) with off <= o, in order: used for entry states *)
           match fde with
           | Some f -> List.filter (fun (o', _) -> o' <= o) f.fde_cfi
           | None -> []
         in
         List.iter
           (fun leader ->
             let stop =
               match Hashtbl.find_opt next_leader leader with
               | Some nl -> nl
               | None -> fb.fb_size
             in
             let i0 =
               match Hashtbl.find_opt idx_of_off leader with
               | Some i -> i
               | None ->
                   mark_non_simple fb "leader inside an instruction";
                   raise Exit
             in
             let insns = ref [] in
             let term = ref None in
             let i = ref i0 in
             while !term = None && !i < n && raws.(!i).r_off < stop do
               let r = raws.(!i) in
               let next_off = r.r_off + r.r_size in
               let mark_term t = term := Some t in
               let keep ?(sym = r.r_insn) () =
                 let cfi =
                   match Hashtbl.find_opt cfi_at next_off with Some ops -> ops | None -> []
                 in
                 insns :=
                   {
                     op = sym;
                     lp =
                       (if Insn.is_call r.r_insn || r.r_insn = Insn.Throw then
                          lp_at r.r_off
                        else None);
                     loc = loc_at r.r_off;
                     cfi_after = cfi;
                     m_off = r.r_off;
                   }
                   :: !insns
               in
               (match r.r_insn with
               | Insn.Nop _ -> if not opts.Opts.strip_nops then keep ()
               | Insn.Jmp (Insn.Imm rel, _) ->
                   let t = next_off + rel in
                   if in_func t then mark_term (T_jump (lbl t))
                   else begin
                     (* direct tail call *)
                     let fn = call_target (fb.fb_addr + t) in
                     keep ~sym:(Insn.Jmp (Insn.Sym (fn, 0), Insn.W32)) ();
                     mark_term T_stop
                   end
               | Insn.Jcc (c, Insn.Imm rel, _) ->
                   let t = next_off + rel in
                   let fall =
                     if in_func next_off then lbl next_off
                     else begin
                       mark_non_simple fb "conditional branch at function end";
                       raise Exit
                     end
                   in
                   if in_func t then mark_term (T_cond (c, lbl t, fall))
                   else mark_term (T_condtail (c, call_target (fb.fb_addr + t), fall))
               | Insn.Jmp_ind _ ->
                   keep ();
                   mark_term (T_indirect (Hashtbl.find_opt jt_of_idx !i))
               | Insn.Ret | Insn.Repz_ret | Insn.Halt | Insn.Throw ->
                   keep ();
                   mark_term T_stop
               | Insn.Call (Insn.Imm rel) ->
                   let fn = call_target (fb.fb_addr + next_off + rel) in
                   keep ~sym:(Insn.Call (Insn.Sym (fn, 0))) ()
               | Insn.Lea_rel (rg, Insn.Imm disp) ->
                   (* rewrite PIC address materialisation to absolute: the
                      instruction is about to move, the data is not *)
                   let a = fb.fb_addr + next_off + disp in
                   (match Context.resolve_code ctx a with
                   | Some (fn, 0) -> keep ~sym:(Insn.Lea (rg, Insn.Sym (fn, 0))) ()
                   | _ -> keep ~sym:(Insn.Lea (rg, Insn.Imm a)) ())
               | Insn.Lea (rg, Insn.Imm a) -> (
                   (* function pointers must stay symbolic: the target is
                      about to move *)
                   match Context.resolve_code ctx a with
                   | Some (fn, 0) -> keep ~sym:(Insn.Lea (rg, Insn.Sym (fn, 0))) ()
                   | Some _ ->
                       mark_non_simple fb "address of code taken mid-function";
                       raise Exit
                   | None -> keep ())
               | _ -> keep ());
               incr i
             done;
             let term =
               match !term with
               | Some t -> t
               | None ->
                   if stop >= fb.fb_size then begin
                     mark_non_simple fb "control falls off the function end";
                     raise Exit
                   end
                   else T_jump (lbl stop)
             in
             let entry_state =
               Types.cfi_state_at (cfi_ops_upto leader) leader
             in
             Hashtbl.replace fb.blocks (lbl leader)
               {
                 bl = lbl leader;
                 b_off = leader;
                 insns = List.rev !insns;
                 term;
                 ecount = 0;
                 cfi_entry = entry_state;
                 is_lp = false;
               })
           leader_list;
         (* jump tables, now that labels exist *)
         fb.jts <-
           Array.of_list
             (List.rev_map
                (fun (addr, pic, entries) ->
                  { jt_addr = addr; jt_pic = pic; jt_targets = Array.map lbl entries })
                !jts);
         (match lsda with
         | Some l ->
             List.iter
               (fun (e : Types.lsda_entry) ->
                 match block_opt fb (lbl e.lsda_pad) with
                 | Some b -> b.is_lp <- true
                 | None -> ())
               l.lsda_entries
         | None -> ());
         fb.layout <- List.map lbl leader_list;
         fb.entry <- lbl 0
       with Exit ->
         if fb.why_not_simple = "" then
           mark_non_simple fb "unresolvable code reference";
         Hashtbl.reset fb.blocks;
         fb.layout <- []);
      (* Non-simple fallback: keep bytes identical, but symbolize the
         references that must survive relocation. *)
      if not fb.simple then symbolize_raw ctx fb raw_list)

(* ---- discovery ---- *)

let discover ctx =
  let exe = ctx.Context.exe in
  let seen = Hashtbl.create 256 in
  let order = ref [] in
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
        Hashtbl.replace seen addr name;
        Hashtbl.replace ctx.Context.funcs name (Bfunc.create ~name ~addr ~size);
        order := (addr, name) :: !order
      end
    end
  in
  (* symbol-table functions (skip PLT stubs: they are kept verbatim) *)
  List.iter
    (fun (s : Types.symbol) ->
      if s.sym_kind = Types.Func && s.sym_section = ".text" then
        add s.sym_name s.sym_value s.sym_size)
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
  ctx.Context.order <-
    List.sort compare !order |> List.map snd

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
    Hashtbl.reset fb.blocks;
    fb.layout <- [];
    redecode ctx fb
