(* Rewrite the binary file (last stage of Figure 3).

   Relocations mode (§3.2): every function is re-emitted and the whole
   .text is laid out afresh — hot functions first in HFSort order, then
   unsampled functions, then PLT stubs, then all cold fragments.  Enabled
   when the input keeps linker relocations (--emit-relocs).

   In-place mode (§3.1, the original design): functions stay at their
   original addresses; an optimized body that fits its old slot replaces
   it, cold fragments overflow into a fresh code segment at a high
   address, and anything that does not fit is left untouched.

   Either way: jump-table cells in .rodata are rewritten to the blocks'
   new addresses (PIC tables keep their difference encoding), GOT slots
   that hold function addresses are re-pointed, the symbol table, frame
   descriptors, exception tables and line tables are regenerated, and the
   entry point is remapped. *)

open Bolt_obj
open Types
open Bfunc

type placed = {
  p_frag : Emit.fragment;
  mutable p_addr : int;
}

type result = {
  out : Objfile.t;
  hot_size : int;
  cold_size : int;
  text_size_before : int;
  text_size_after : int;
}

let align a off = if a <= 1 then off else (off + a - 1) / a * a

(* Alignment of each hot function's start in the rewritten text. *)
let align_functions = 16

(* A fragment could not be finalized: (function, message).  The driver
   quarantines the function and re-runs the rewrite. *)
exception Frag_error of string * string

(* The function a symbol name stands for: its own, or for an alias
   discovery never registered, the one the index names at its start. *)
let owner ctx name =
  match Context.func ctx name with
  | Some f -> Some f
  | None ->
      Option.bind (Symtab.find ctx.Context.syms name) (fun s ->
          Option.bind (Symtab.at ctx.Context.syms s.sym_value) (fun o ->
              Context.func ctx o.sym_name))

(* Where a function's code lives now: followed through ICF folds to the
   survivor. *)
let rec survivor ctx (f : Bfunc.t) =
  match Option.bind f.folded_into (Context.func ctx) with
  | Some s -> survivor ctx s
  | None -> f

(* The name a symbol's code lives under now. *)
let canon_name ctx name =
  match owner ctx name with Some f -> (survivor ctx f).fb_name | None -> name

let run ctx : result =
  let exe = ctx.Context.exe in
  let opts = ctx.Context.opts in
  let funcs = ctx.Context.funcs in
  let n_funcs = Array.length funcs in
  let live = List.filter (fun f -> f.folded_into = None) (Array.to_list funcs) in

  (* ---- function order, by id ---- *)
  let hot_ids, cold_ids =
    match ctx.Context.func_layout with
    | Some (h, c) -> (h, c)
    | None -> (List.map (fun f -> f.fb_id) live, [])
  in

  (* ---- emit fragments ----

     Re-encoding is per-function and by far the largest fraction of the
     rewrite, so it fans out over the domain pool: each worker fills its
     function's slots in [frags_of] and [reverted] (per-item state only,
     by id) and parks diagnostics/quarantine verdicts on its per-domain
     shard, which fold back in address order at the join — bytes and
     diagnostics are identical at any -j.  [min_chunk] keeps small
     binaries inline: a per-function encode is microseconds, a domain
     spawn a millisecond. *)
  let relmode = ctx.Context.relocations_mode in
  let frags_of = Array.make n_funcs ([] : Emit.fragment list) in
  let reverted = Array.make n_funcs false in
  let live_arr = Array.of_list live in
  let pool = Pool.create ~jobs:opts.Opts.jobs () in
  let emit_domains = Pool.domains_for ~min_chunk:32 pool (Array.length live_arr) in
  let shards = Array.init emit_domains (fun _ -> Context.new_shard ()) in
  let worker dom fb =
    let sh = shards.(dom) in
    (* Verbatim emission of a non-simple function.  A function whose
       bytes would not even decode cannot be re-emitted at all: in-place
       it stays in its original slot; in relocations mode the whole text
       moves around it, so the run must fall back to the identity
       rewrite. *)
    let emit_verbatim () =
      if fb.raw_insns = [] then
        if relmode then
          raise
            (Frag_error (fb.fb_name, "undecodable function cannot be relocated"))
        else begin
          Context.sh_diag sh Diag.Warning ~stage:"rewrite" ~func:fb.fb_name
            "undecodable function left in place";
          reverted.(fb.fb_id) <- true;
          []
        end
      else if fb.table_unrecovered && relmode then
        (* the body reads a jump table we could not reconstruct; its
           cells still aim at the original body, so moving the code
           would leave them stale.  In-place the function never moves
           and stays safe. *)
        raise
          (Frag_error
             (fb.fb_name, "unrecoverable jump table: function cannot be relocated"))
      else [ Emit.emit_raw fb ]
    in
    frags_of.(fb.fb_id) <-
      (if fb.simple then
         try Emit.emit_simple fb
         with exn when not (Quarantine.fatal exn) ->
           (* emitter barrier: demote and emit the original bytes; the
              verdict replays (and escalates under --strict) at the
              join *)
           Quarantine.demote_quiet ctx ~stage:"emit" fb;
           sh.Context.sh_verdicts <-
             (fb, Printexc.to_string exn) :: sh.Context.sh_verdicts;
           emit_verbatim ()
       else emit_verbatim ())
  in
  ignore (Pool.run ~min_chunk:32 pool ~worker live_arr);
  Quarantine.fold_shards ctx ~stage:"emit" (Array.to_list shards);

  (* ---- placement ---- *)
  let placements = ref [] in
  let place frag addr = placements := { p_frag = frag; p_addr = addr } :: !placements in
  let hot_end = ref 0 and cold_bytes = ref 0 in
  if relmode then begin
    let cursor = ref Layout.text_base in
    let place_hot (frag : Emit.fragment) align_to =
      cursor := align align_to !cursor;
      place frag !cursor;
      cursor := !cursor + frag.fr_out.Bolt_asm.Asm.fo_size
    in
    let member ids =
      let set = Array.make n_funcs false in
      List.iter (fun i -> set.(i) <- true) ids;
      Array.get set
    in
    let is_hot = member hot_ids in
    let ordered = hot_ids @ List.filter (fun i -> not (is_hot i)) cold_ids in
    let is_ordered = member ordered in
    let rest =
      List.filter_map
        (fun fb -> if is_ordered fb.fb_id then None else Some fb.fb_id)
        live
    in
    (* hot fragments first, in order *)
    List.iter
      (fun i ->
        match frags_of.(i) with
        | hot :: _ -> place_hot hot align_functions
        | [] -> ())
      (ordered @ rest);
    (* then PLT stubs, in the stub table's order *)
    let stub_frags =
      Hashtbl.fold
        (fun stub { Context.slot; _ } acc ->
          let insn = Bolt_isa.Insn.Jmp_mem (Bolt_isa.Insn.Imm slot) in
          let af =
            {
              Bolt_asm.Asm.af_name = stub;
              af_global = false;
              af_align = 1;
              af_emit_fde = false;
              af_body = [ Bolt_asm.Asm.A_insn insn ];
            }
          in
          let out = Bolt_asm.Asm.assemble_function ~base:0 af in
          {
            Emit.fr_name = stub;
            fr_func = stub;
            fr_out = out;
            fr_labels = [];
            fr_lsda_sym = [];
            fr_has_fde = false;
          }
          :: acc)
        ctx.Context.stubs []
    in
    List.iter (fun f -> place_hot f 16) stub_frags;
    hot_end := !cursor;
    (* finally, the cold area *)
    List.iter
      (fun i ->
        match frags_of.(i) with
        | _ :: cold :: _ ->
            place_hot cold 4;
            cold_bytes := !cold_bytes + cold.Emit.fr_out.Bolt_asm.Asm.fo_size
        | _ -> ())
      (ordered @ rest)
  end
  else begin
    (* in-place: hot fragment must fit the original slot *)
    let cold_cursor = ref Layout.bolt_text_base in
    List.iter
      (fun fb ->
        match frags_of.(fb.fb_id) with
        | hot :: rest ->
            let hot_size = hot.Emit.fr_out.Bolt_asm.Asm.fo_size in
            if hot_size <= fb.fb_size then begin
              place hot fb.fb_addr;
              match rest with
              | cold :: _ ->
                  place cold !cold_cursor;
                  cold_bytes := !cold_bytes + cold.Emit.fr_out.Bolt_asm.Asm.fo_size;
                  cold_cursor :=
                    align 4 (!cold_cursor + cold.Emit.fr_out.Bolt_asm.Asm.fo_size)
              | [] -> ()
            end
            else
              (* does not fit even after splitting: leave untouched *)
              reverted.(fb.fb_id) <- true
        | [] -> ())
      live;
    hot_end := Layout.text_base + ctx.Context.text.sec_size
  end;
  let placements = List.rev !placements in

  (* ---- global resolution maps ---- *)
  let frag_addr = Hashtbl.create 256 in
  let block_addr = Hashtbl.create 1024 in
  List.iter
    (fun p ->
      Hashtbl.replace frag_addr p.p_frag.Emit.fr_name p.p_addr;
      List.iter
        (fun (l, off) ->
          Hashtbl.replace block_addr (p.p_frag.Emit.fr_func, l) (p.p_addr + off))
        p.p_frag.Emit.fr_labels)
    placements;
  (* reverted / untouched functions keep original addresses *)
  Array.iteri
    (fun i r -> if r then Hashtbl.replace frag_addr funcs.(i).fb_name funcs.(i).fb_addr)
    reverted;
  let resolve_sym s =
    (* block cross-reference? *)
    match String.index_opt s '/' with
    | Some i ->
        let fn = String.sub s 0 i and l = String.sub s (i + 1) (String.length s - i - 1) in
        Hashtbl.find_opt block_addr (fn, l)
    | None -> (
        let s = canon_name ctx s in
        match Hashtbl.find_opt frag_addr s with
        | Some a -> Some a
        | None -> (
            (* data or untouched symbol: original address *)
            match Objfile.find_symbol exe s with
            | Some sym -> Some sym.sym_value
            | None -> None))
  in

  (* ---- build the new text ---- *)
  let write_frag text text_base_addr p =
    let out = p.p_frag.Emit.fr_out in
    let base_off = p.p_addr - text_base_addr in
    Bytes.blit out.Bolt_asm.Asm.fo_bytes 0 text base_off out.Bolt_asm.Asm.fo_size;
    List.iter
      (fun (off, kind, sym, addend, rel_end) ->
        let s =
          match resolve_sym sym with
          | Some a -> a
          | None ->
              raise
                (Frag_error
                   ( p.p_frag.Emit.fr_func,
                     Printf.sprintf "undefined symbol %s in %s" sym
                       p.p_frag.Emit.fr_name ))
        in
        let v =
          match kind with
          | Abs32 | Abs64 -> s + addend
          | Rel32 | Rel8 -> s + addend - (p.p_addr + off + rel_end)
        in
        let fo = base_off + off in
        match kind with
        | Abs64 -> Bytes.set_int64_le text fo (Int64.of_int v)
        | Abs32 | Rel32 -> Bytes.set_int32_le text fo (Int32.of_int v)
        | Rel8 ->
            if not (Bolt_isa.Codec.fits_i8 v) then
              raise
                (Frag_error
                   ( p.p_frag.Emit.fr_func,
                     Printf.sprintf "rel8 overflow in %s" p.p_frag.Emit.fr_name ));
            Bytes.set text fo (Char.chr (v land 0xff)))
      out.Bolt_asm.Asm.fo_relocs
  in

  let sections = ref [] in
  if relmode then begin
    let text_size = !hot_end - Layout.text_base + !cold_bytes + 64 in
    let total =
      List.fold_left
        (fun acc p ->
          max acc (p.p_addr + p.p_frag.Emit.fr_out.Bolt_asm.Asm.fo_size - Layout.text_base))
        0 placements
    in
    let size = max text_size total in
    if Layout.text_base + size >= Layout.rodata_base then
      Context.err "rewrite: text overflow";
    let text = Bytes.make size '\x02' in
    List.iter (fun p -> write_frag text Layout.text_base p) placements;
    sections :=
      [ { sec_name = ".text"; sec_kind = Text; sec_addr = Layout.text_base; sec_data = text; sec_size = size } ]
  end
  else begin
    (* in-place: start from the original text bytes *)
    let orig = ctx.Context.text in
    let text = Bytes.copy orig.sec_data in
    let in_text, in_cold =
      List.partition (fun p -> p.p_addr < Layout.bolt_text_base) placements
    in
    (* clear each rewritten function's slot to nops first *)
    List.iter
      (fun p ->
        match Context.func ctx p.p_frag.Emit.fr_func with
        | Some fb when p.p_frag.Emit.fr_name = fb.fb_name ->
            Bytes.fill text (fb.fb_addr - orig.sec_addr) fb.fb_size '\x02'
        | _ -> ())
      in_text;
    List.iter (fun p -> write_frag text orig.sec_addr p) in_text;
    let cold_size =
      List.fold_left
        (fun acc p ->
          max acc (p.p_addr + p.p_frag.Emit.fr_out.Bolt_asm.Asm.fo_size - Layout.bolt_text_base))
        0 in_cold
    in
    let cold = Bytes.make (max cold_size 0) '\x02' in
    List.iter (fun p -> write_frag cold Layout.bolt_text_base p) in_cold;
    sections :=
      [ { orig with sec_data = text } ]
      @ (match ctx.Context.plt with Some p -> [ p ] | None -> [])
      @
      if cold_size > 0 then
        [ { sec_name = ".bolt.text"; sec_kind = Text; sec_addr = Layout.bolt_text_base; sec_data = cold; sec_size = cold_size } ]
      else []
  end;

  (* ---- patch jump tables in .rodata ---- *)
  let rodata =
    match ctx.Context.rodata with
    | Some ro ->
        let data = Bytes.copy ro.sec_data in
        let patch_cell (jt : jt) k target_addr =
          let v = if jt.jt_pic then target_addr - jt.jt_addr else target_addr in
          Bytes.set_int64_le data
            (jt.jt_addr - ro.sec_addr + (8 * k))
            (Int64.of_int v)
        in
        List.iter
          (fun fb ->
            if reverted.(fb.fb_id) then ()
            else if fb.simple then
              Array.iter
                (fun (jt : jt) ->
                  Array.iteri
                    (fun k l ->
                      match Hashtbl.find_opt block_addr (fb.fb_name, fb.blocks.(l).bl) with
                      | Some a -> patch_cell jt k a
                      | None -> ())
                    jt.jt_targets)
                fb.jts
            else
              (* quarantined mid-pipeline: the body is byte-identical but
                 may have moved, so every cell shifts by the same delta *)
              match Hashtbl.find_opt frag_addr fb.fb_name with
              | Some base when base <> fb.fb_addr ->
                  Array.iter
                    (fun (jt : jt) ->
                      Array.iteri (fun k off -> patch_cell jt k (base + off)) jt.jt_offsets)
                    fb.jts
              | _ -> ())
          live;
        Some { ro with sec_data = data }
    | None -> None
  in

  (* ---- patch GOT and other data relocations against moved functions ---- *)
  let got =
    match ctx.Context.got with
    | Some g when relmode ->
        let data = Bytes.copy g.sec_data in
        List.iter
          (fun (r : reloc) ->
            if r.rel_section = ".got" && r.rel_kind = Abs64 && r.rel_addend = 0 then
              match resolve_sym r.rel_sym with
              | Some a -> Bytes.set_int64_le data r.rel_offset (Int64.of_int a)
              | None -> ())
          exe.relocs;
        Some { g with sec_data = data }
    | g -> g
  in

  (* ---- symbols ---- *)
  let new_symbols =
    List.filter_map
      (fun (s : symbol) ->
        if s.sym_kind = Func && s.sym_section = ".plt" && relmode then
          (* stub moved into .text *)
          match Hashtbl.find_opt frag_addr s.sym_name with
          | Some a -> Some { s with sym_value = a; sym_section = ".text" }
          | None -> None
        else
          match owner ctx s.sym_name with
          | Some fb -> (
              let target = survivor ctx fb in
              match Hashtbl.find_opt frag_addr target.fb_name with
              | Some a ->
                  let size =
                    match frags_of.(target.fb_id) with
                    | hot :: _ when relmode && not reverted.(target.fb_id) ->
                        hot.Emit.fr_out.Bolt_asm.Asm.fo_size
                    | _ -> fb.fb_size
                  in
                  Some { s with sym_value = a; sym_size = size }
              | None -> Some s)
          | None -> Some s)
      exe.symbols
  in
  let cold_symbols =
    List.filter_map
      (fun p ->
        let n = p.p_frag.Emit.fr_name in
        if Filename.check_suffix n ".cold" then
          Some
            {
              sym_name = n;
              sym_kind = Func;
              sym_bind = Local;
              sym_section = (if relmode then ".text" else ".bolt.text");
              sym_value = p.p_addr;
              sym_size = p.p_frag.Emit.fr_out.Bolt_asm.Asm.fo_size;
            }
        else None)
      placements
  in

  (* ---- frame info, exception tables, line tables ---- *)
  let meta = ctx.Context.meta in
  let fdes = ref [] and lsdas = ref [] and dbgs = ref [] in
  List.iter
    (fun p ->
      let frag = p.p_frag in
      let out = frag.Emit.fr_out in
      let fb = Context.func ctx frag.Emit.fr_func in
      match fb with
      | Some fb when fb.simple && not reverted.(fb.fb_id) ->
          if frag.Emit.fr_has_fde then
            fdes :=
              {
                fde_func = frag.Emit.fr_name;
                fde_addr = p.p_addr;
                fde_size = out.Bolt_asm.Asm.fo_size;
                fde_cfi = out.Bolt_asm.Asm.fo_cfi;
              }
              :: !fdes;
          (if frag.Emit.fr_lsda_sym <> [] then
             let entries =
               List.filter_map
                 (fun (start, len, pad) ->
                   match Hashtbl.find_opt block_addr (fb.fb_name, pad) with
                   | Some pad_addr ->
                       Some
                         {
                           lsda_start = start;
                           lsda_len = len;
                           lsda_pad = pad_addr - p.p_addr;
                           lsda_action = 1;
                         }
                   | None -> None)
                 frag.Emit.fr_lsda_sym
             in
             if entries <> [] then
               lsdas :=
                 { lsda_func = frag.Emit.fr_name; lsda_fn_addr = p.p_addr; lsda_entries = entries }
                 :: !lsdas);
          if out.Bolt_asm.Asm.fo_dbg <> [] then
            dbgs :=
              { dbg_func = frag.Emit.fr_name; dbg_addr = p.p_addr; dbg_entries = out.Bolt_asm.Asm.fo_dbg }
              :: !dbgs
      | Some fb ->
          (* non-simple or reverted: original metadata rebased *)
          if frag.Emit.fr_name = fb.fb_name then begin
            (match Objfile.Index.fde meta fb.fb_addr with
            | Some f -> fdes := { f with fde_addr = p.p_addr } :: !fdes
            | None -> ());
            (match Objfile.Index.lsda meta fb.fb_addr with
            | Some l -> lsdas := { l with lsda_fn_addr = p.p_addr } :: !lsdas
            | None -> ());
            match Objfile.Index.dbg meta fb.fb_addr with
            | Some d -> dbgs := { d with dbg_addr = p.p_addr } :: !dbgs
            | None -> ()
          end
      | None -> ())
    placements;
  (* reverted functions keep their original records.  They follow the
     iteration order of a name-keyed table filled as they were reverted
     (at emission, those left with no fragment, then at placement, each
     in address order): a hash order, which the output bytes carry *)
  let by_name = Hashtbl.create 16 in
  let emitted, placed =
    List.partition (fun fb -> frags_of.(fb.fb_id) = [])
      (List.filter (fun fb -> reverted.(fb.fb_id)) live)
  in
  List.iter (fun fb -> Hashtbl.replace by_name fb.fb_name fb) (emitted @ placed);
  Hashtbl.iter
    (fun _ fb ->
      (match Objfile.Index.fde meta fb.fb_addr with Some f -> fdes := f :: !fdes | None -> ());
      (match Objfile.Index.lsda meta fb.fb_addr with Some l -> lsdas := l :: !lsdas | None -> ());
      match Objfile.Index.dbg meta fb.fb_addr with Some d -> dbgs := d :: !dbgs | None -> ())
    by_name;

  let other_sections =
    List.filter_map
      (fun (s : section) ->
        match s.sec_kind with
        | Text -> None
        | _ ->
            if s.sec_name = ".rodata" then rodata
            else if s.sec_name = ".got" then got
            else Some s)
      exe.sections
  in
  let entry =
    match resolve_sym "main" with Some a -> a | None -> exe.entry
  in
  let out =
    (* a rewritten binary is a new revision: restamp build-id and
       fingerprints so fleet staleness checks distinguish it from the
       input build and profiles collected on it can be matched later *)
    Objfile.stamp_fingerprints
      (Objfile.stamp_build_id
         {
           Objfile.kind = Objfile.Executable;
           entry;
           build_id = "";
           sections = !sections @ other_sections;
           symbols = new_symbols @ cold_symbols;
           relocs = [];
           fdes = List.rev !fdes;
           lsdas = List.rev !lsdas;
           dbgs = List.rev !dbgs;
           fingerprints = [];
         })
  in
  {
    out;
    hot_size = !hot_end - Layout.text_base;
    cold_size = !cold_bytes;
    text_size_before = Objfile.text_size exe;
    text_size_after = Objfile.text_size out;
  }

(* ---- the hardened rewrite driver ----

   The emit/link/rewrite step with the degradation ladder that used to
   live in the Bolt driver: a function whose fragment cannot be finalized
   is quarantined and the rewrite re-run without it; if the rewrite still
   cannot complete (and we are not strict) the run degrades to the
   identity rewrite — the input binary unchanged. *)

(* How many times a Frag_error may quarantine a function and retry the
   whole rewrite before giving up.  Each retry removes at least one
   function from the optimized set, so this bounds wasted work on a
   pathological input, not correctness. *)
let max_retries = 8

(* Returns the result and whether the identity fallback was taken. *)
let run_protected ctx : result * bool =
  let obs = ctx.Context.obs in
  let rec retry budget =
    try run ctx
    with Frag_error (func, msg) ->
      (match Context.func ctx func with
      | Some fb when fb.Bfunc.simple && budget > 0 ->
          Quarantine.demote ctx ~stage:"rewrite" fb msg
      | _ -> Context.err "rewrite: %s: %s" func msg);
      retry (budget - 1)
  in
  let rw, identity_fallback =
    try (retry max_retries, false)
    with
    | exn
      when (not ctx.Context.opts.Opts.strict) && not (Quarantine.fatal exn) ->
      (* last rung of the degradation ladder: ship the input unchanged *)
      Diag.errorf ctx.Context.diag ~stage:"rewrite"
        "rewrite failed (%s); falling back to the identity rewrite"
        (Printexc.to_string exn);
      Bolt_obs.Obs.event obs "identity-fallback";
      let tb = Objfile.text_size ctx.Context.exe in
      ( {
          out = ctx.Context.exe;
          hot_size = 0;
          cold_size = 0;
          text_size_before = tb;
          text_size_after = tb;
        },
        true )
  in
  Bolt_obs.Obs.incr obs ~by:rw.text_size_after "rewrite.bytes_emitted";
  Bolt_obs.Obs.set_attr obs "hot_bytes" (Bolt_obs.Json.Int rw.hot_size);
  Bolt_obs.Obs.set_attr obs "cold_bytes" (Bolt_obs.Json.Int rw.cold_size);
  Bolt_obs.Obs.set_attr obs "text_before" (Bolt_obs.Json.Int rw.text_size_before);
  Bolt_obs.Obs.set_attr obs "text_after" (Bolt_obs.Json.Int rw.text_size_after);
  Bolt_obs.Metrics.incr ctx.Context.stats ~by:rw.text_size_after
    "rewrite.bytes_emitted";
  (rw, identity_fallback)
