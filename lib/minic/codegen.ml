(* IR to BISA code generation.

   Register discipline:
   - r5/r6 are per-instruction scratch;
   - in framed functions, the six most-used temps live in callee-saved
     registers r8..r13 (pushed in the prologue, which gives BOLT's
     frame-opts and shrink-wrapping passes something to improve) and the
     rest spill to fp-relative slots;
   - tiny leaf functions are emitted frameless, with temps in the unused
     argument registers — these are exactly the bodies BOLT's inline-small
     pass can later splice into callers.

   Switch statements lower to PIC or absolute jump tables; the PIC flavour
   leaves no relocations behind after linking, so the rewriter has to
   rediscover the table by pattern matching, as the paper describes.

   Every function returns with the 2-byte legacy-AMD [repz ret], which
   BOLT's strip-rep-ret pass removes, and gets a frame descriptor. *)

open Bolt_isa
open Bolt_asm.Asm
module T = Bolt_obj.Types

type options = {
  opt_level : int;
  lto : bool;
  function_sections : bool;
  pic_jump_tables : bool;
  align_loops : bool;
  plt_calls : bool; (* extern calls go through the PLT (non-LTO builds) *)
}

type home = Hreg of Reg.t | Hslot of int (* slot index, 8 bytes each *)

let lbl fn l = Printf.sprintf ".L%s$%d" fn l
let epi_lbl fn = Printf.sprintf ".L%s$epi" fn

let cond_of_cmp = function
  | Ir.Ceq -> Cond.Eq
  | Ir.Cne -> Cond.Ne
  | Ir.Clt -> Cond.Lt
  | Ir.Cle -> Cond.Le
  | Ir.Cgt -> Cond.Gt
  | Ir.Cge -> Cond.Ge

let alu_of_bin = function
  | Ir.Add -> Insn.Add
  | Ir.Sub -> Insn.Sub
  | Ir.Mul -> Insn.Mul
  | Ir.Div -> Insn.Div
  | Ir.Mod -> Insn.Mod
  | Ir.And -> Insn.And
  | Ir.Or -> Insn.Or
  | Ir.Xor -> Insn.Xor
  | Ir.Shl -> Insn.Shl
  | Ir.Shr -> Insn.Shr

let gsym name = "G$" ^ name

(* ---- register allocation ---- *)

let use_counts (f : Ir.func) =
  let counts = Hashtbl.create 32 in
  let bump t = Hashtbl.replace counts t (1 + try Hashtbl.find counts t with Not_found -> 0) in
  List.iter bump f.Ir.f_params;
  List.iter
    (fun (_, b) ->
      List.iter
        (fun (i, _) ->
          List.iter bump (Ir.defs_of i);
          List.iter bump (Ir.uses_of i))
        b.Ir.insns;
      List.iter bump (Ir.term_uses b.Ir.term))
    f.Ir.f_blocks;
  counts

let callee_pool = [ Reg.r8; Reg.r9; Reg.r10; Reg.r11; Reg.r12; Reg.r13 ]

type frame = {
  homes : (Ir.temp, home) Hashtbl.t;
  saved : Reg.t list; (* callee-saved registers pushed in the prologue *)
  locals : int; (* bytes of slot area *)
  frameless : bool;
}

let is_leaf (f : Ir.func) =
  List.for_all
    (fun (_, b) ->
      b.Ir.lp = None
      && (not (Ir.has_call b))
      && not
           (List.exists
              (fun (i, _) -> match i with Ir.Ilandingpad _ -> true | _ -> false)
              b.Ir.insns))
    f.Ir.f_blocks

let all_temps (f : Ir.func) =
  let counts = use_counts f in
  Hashtbl.fold (fun t c acc -> (t, c) :: acc) counts []
  |> List.sort (fun (t1, c1) (t2, c2) ->
         if c1 <> c2 then compare c2 c1 else compare t1 t2)

let allocate ~opt_level (f : Ir.func) : frame =
  let temps = all_temps f in
  let nparams = List.length f.Ir.f_params in
  let homes = Hashtbl.create 32 in
  let frameless =
    opt_level >= 1 && is_leaf f
    &&
    (* params stay in r1..r4; everything else must fit in leftover arg regs + r7 *)
    let others = List.filter (fun (t, _) -> not (List.mem t f.Ir.f_params)) temps in
    List.length others <= 4 - nparams + 1
  in
  if frameless then begin
    List.iteri (fun i p -> Hashtbl.replace homes p (Hreg (Reg.of_int (i + 1)))) f.Ir.f_params;
    let pool =
      List.filteri (fun i _ -> i >= nparams) [ Reg.r1; Reg.r2; Reg.r3; Reg.r4 ] @ [ Reg.r7 ]
    in
    let others = List.filter (fun (t, _) -> not (List.mem t f.Ir.f_params)) temps in
    List.iteri (fun i (t, _) -> Hashtbl.replace homes t (Hreg (List.nth pool i))) others;
    { homes; saved = []; locals = 0; frameless = true }
  end
  else begin
    let in_regs = if opt_level >= 1 then List.filteri (fun i _ -> i < 6) temps else [] in
    let saved = List.mapi (fun i _ -> List.nth callee_pool i) in_regs in
    List.iteri
      (fun i (t, _) -> Hashtbl.replace homes t (Hreg (List.nth callee_pool i)))
      in_regs;
    let rest = List.filter (fun (t, _) -> not (Hashtbl.mem homes t)) temps in
    List.iteri (fun i (t, _) -> Hashtbl.replace homes t (Hslot i)) rest;
    { homes; saved; locals = 8 * List.length rest; frameless = false }
  end

(* ---- per-function emission ---- *)

type fstate = {
  opts : options;
  f : Ir.func;
  frame : frame;
  mutable items : aitem list; (* reversed *)
  mutable rodata : ditem list; (* reversed: jump tables *)
  mutable jt_count : int;
  module_of : (string, string) Hashtbl.t;
}

let push st it = st.items <- it :: st.items

let ins st ?lp i =
  match lp with
  | Some pad -> push st (A_insn_lp (i, pad))
  | None -> push st (A_insn i)

let home st t =
  match Hashtbl.find_opt st.frame.homes t with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "codegen: temp %d has no home in %s" t st.f.Ir.f_name)

(* fp-relative offset of slot k: slots sit just below fp. *)
let slot_disp k = -8 * (k + 1)

(* Load a temp into a specific register. *)
let load_temp st r t =
  match home st t with
  | Hreg hr -> if not (Reg.equal hr r) then ins st (Insn.Mov_rr (r, hr))
  | Hslot k -> ins st (Insn.Load (r, Reg.fp, slot_disp k))

(* Store a register into a temp's home. *)
let store_temp st t r =
  match home st t with
  | Hreg hr -> if not (Reg.equal hr r) then ins st (Insn.Mov_rr (hr, r))
  | Hslot k -> ins st (Insn.Store (Reg.fp, slot_disp k, r))

let scratch1 = Reg.r5
let scratch2 = Reg.r6

let direct_call_target st fn =
  if st.opts.lto || not st.opts.plt_calls then Insn.Sym (fn, 0)
  else
    let caller_module = st.f.Ir.f_module in
    match Hashtbl.find_opt st.module_of fn with
    | Some m when m = caller_module -> Insn.Sym (fn, 0)
    | Some _ -> Insn.Sym (fn ^ "$plt", 0)
    | None -> Insn.Sym (fn, 0)

let emit_args st args =
  List.iteri (fun i a -> load_temp st (Reg.of_int (i + 1)) a) args

let emit_insn st ~lp (i : Ir.insn) =
  match i with
  | Ir.Iconst (d, n) ->
      let w = if Codec.fits_i32 n then Insn.I32 else Insn.I64 in
      (match home st d with
      | Hreg r -> ins st (Insn.Mov_ri (r, Insn.Imm n, w))
      | Hslot _ ->
          ins st (Insn.Mov_ri (scratch1, Insn.Imm n, w));
          store_temp st d scratch1)
  | Ir.Imov (d, s) -> (
      match (home st d, home st s) with
      | Hreg rd, _ -> load_temp st rd s
      | _, Hreg rs -> store_temp st d rs
      | _ ->
          load_temp st scratch1 s;
          store_temp st d scratch1)
  | Ir.Ibin (op, d, a, b) ->
      load_temp st scratch1 a;
      load_temp st scratch2 b;
      ins st (Insn.Alu_rr (alu_of_bin op, scratch1, scratch2));
      store_temp st d scratch1
  | Ir.Icmp (op, d, a, b) ->
      load_temp st scratch1 a;
      load_temp st scratch2 b;
      ins st (Insn.Alu_rr (Insn.Cmp, scratch1, scratch2));
      ins st (Insn.Setcc (cond_of_cmp op, scratch1));
      store_temp st d scratch1
  | Ir.Iload_g (d, g) ->
      ins st (Insn.Load_abs (scratch1, Insn.Sym (gsym g, 0)));
      store_temp st d scratch1
  | Ir.Istore_g (g, s) ->
      load_temp st scratch1 s;
      ins st (Insn.Store_abs (Insn.Sym (gsym g, 0), scratch1))
  | Ir.Iload_idx (d, g, ix) ->
      load_temp st scratch1 ix;
      ins st (Insn.Alu_ri (Insn.Shl, scratch1, Insn.Imm 3));
      ins st (Insn.Lea (scratch2, Insn.Sym (gsym g, 0)));
      ins st (Insn.Alu_rr (Insn.Add, scratch1, scratch2));
      ins st (Insn.Load (scratch1, scratch1, 0));
      store_temp st d scratch1
  | Ir.Istore_idx (g, ix, v) ->
      load_temp st scratch1 ix;
      ins st (Insn.Alu_ri (Insn.Shl, scratch1, Insn.Imm 3));
      ins st (Insn.Lea (scratch2, Insn.Sym (gsym g, 0)));
      ins st (Insn.Alu_rr (Insn.Add, scratch1, scratch2));
      load_temp st scratch2 v;
      ins st (Insn.Store (scratch1, 0, scratch2))
  | Ir.Iload_ro (d, g, idx) ->
      (* a statically-known read-only cell: simplify-ro-loads material *)
      ins st (Insn.Load_abs (scratch1, Insn.Sym (gsym g, 8 * idx)));
      store_temp st d scratch1
  | Ir.Iaddr (d, s) ->
      let sym = if Hashtbl.mem st.module_of s then s else gsym s in
      ins st (Insn.Lea (scratch1, Insn.Sym (sym, 0)));
      store_temp st d scratch1
  | Ir.Icall (dst, fn, args) ->
      emit_args st args;
      ins st ?lp (Insn.Call (direct_call_target st fn));
      (match dst with Some d -> store_temp st d Reg.r0 | None -> ())
  | Ir.Icall_ind (dst, c, args) ->
      emit_args st args;
      load_temp st scratch1 c;
      ins st ?lp (Insn.Call_ind scratch1);
      (match dst with Some d -> store_temp st d Reg.r0 | None -> ())
  | Ir.Iin d ->
      ins st (Insn.In_ scratch1);
      store_temp st d scratch1
  | Ir.Iout s ->
      load_temp st scratch1 s;
      ins st (Insn.Out scratch1)
  | Ir.Iprofcnt k ->
      let sym = Insn.Sym (Pgo.counters_symbol, 8 * k) in
      ins st (Insn.Load_abs (scratch1, sym));
      ins st (Insn.Alu_ri (Insn.Add, scratch1, Insn.Imm 1));
      ins st (Insn.Store_abs (sym, scratch1))
  | Ir.Ilandingpad d -> store_temp st d Reg.r0

let emit_jump_table st targets =
  let fn = st.f.Ir.f_name in
  let jt = Printf.sprintf "JT$%s$%d" fn st.jt_count in
  st.jt_count <- st.jt_count + 1;
  st.rodata <- D_align 8 :: st.rodata;
  st.rodata <- D_label (jt, false) :: st.rodata;
  Array.iter
    (fun l ->
      let target = lbl fn l in
      if st.opts.pic_jump_tables then
        st.rodata <- D_quad_pic (target, 0, jt) :: st.rodata
      else st.rodata <- D_quad (Insn.Sym (target, 0)) :: st.rodata)
    targets;
  jt

let emit_term st ~lp ~next (t : Ir.term) =
  let fn = st.f.Ir.f_name in
  let goto l = if Some l <> next then ins st (Insn.Jmp (Insn.Sym (lbl fn l, 0), Insn.W8)) in
  match t with
  | Ir.Tjmp l -> goto l
  | Ir.Tbr (op, a, b, l1, l2) ->
      load_temp st scratch1 a;
      load_temp st scratch2 b;
      ins st (Insn.Alu_rr (Insn.Cmp, scratch1, scratch2));
      let c = cond_of_cmp op in
      if Some l2 = next then
        ins st (Insn.Jcc (c, Insn.Sym (lbl fn l1, 0), Insn.W8))
      else if Some l1 = next then
        ins st (Insn.Jcc (Cond.invert c, Insn.Sym (lbl fn l2, 0), Insn.W8))
      else begin
        ins st (Insn.Jcc (c, Insn.Sym (lbl fn l1, 0), Insn.W8));
        ins st (Insn.Jmp (Insn.Sym (lbl fn l2, 0), Insn.W8))
      end
  | Ir.Tswitch (tv, base, targets, default) ->
      let jt = emit_jump_table st targets in
      load_temp st scratch1 tv;
      let dflt = Insn.Sym (lbl fn default, 0) in
      ins st (Insn.Alu_ri (Insn.Cmp, scratch1, Insn.Imm base));
      ins st (Insn.Jcc (Cond.Lt, dflt, Insn.W8));
      ins st (Insn.Alu_ri (Insn.Cmp, scratch1, Insn.Imm (base + Array.length targets - 1)));
      ins st (Insn.Jcc (Cond.Gt, dflt, Insn.W8));
      if base <> 0 then ins st (Insn.Alu_ri (Insn.Sub, scratch1, Insn.Imm base));
      ins st (Insn.Alu_ri (Insn.Shl, scratch1, Insn.Imm 3));
      if st.opts.pic_jump_tables then begin
        ins st (Insn.Lea_rel (scratch2, Insn.Sym (jt, 0)));
        ins st (Insn.Alu_rr (Insn.Add, scratch1, scratch2));
        ins st (Insn.Load (scratch1, scratch1, 0));
        ins st (Insn.Alu_rr (Insn.Add, scratch1, scratch2))
      end
      else begin
        ins st (Insn.Lea (scratch2, Insn.Sym (jt, 0)));
        ins st (Insn.Alu_rr (Insn.Add, scratch1, scratch2));
        ins st (Insn.Load (scratch1, scratch1, 0))
      end;
      ins st (Insn.Jmp_ind scratch1)
  | Ir.Tret res ->
      (match res with
      | Some t -> load_temp st Reg.r0 t
      | None -> ins st (Insn.Mov_ri (Reg.r0, Insn.Imm 0, Insn.I32)));
      if st.frame.frameless then
        ins st Insn.Repz_ret
      else if next <> None then
        (* the shared epilogue sits right after the last block *)
        ins st (Insn.Jmp (Insn.Sym (epi_lbl fn, 0), Insn.W8))
  | Ir.Tthrow t ->
      load_temp st Reg.r0 t;
      ins st ?lp Insn.Throw

(* Back-edge targets in the layout: candidates for loop alignment. *)
let loop_headers layout =
  let index = Hashtbl.create 16 in
  List.iteri (fun i l -> Hashtbl.replace index l i) layout;
  fun (f : Ir.func) ->
    let hdrs = Hashtbl.create 8 in
    List.iter
      (fun (l, b) ->
        List.iter
          (fun s ->
            match (Hashtbl.find_opt index l, Hashtbl.find_opt index s) with
            | Some il, Some is when is <= il -> Hashtbl.replace hdrs s ()
            | _ -> ())
          (Ir.successors b.Ir.term))
      f.Ir.f_blocks;
    hdrs

let gen_func ~opts ~module_of (f : Ir.func) : afunc * ditem list =
  let frame = allocate ~opt_level:opts.opt_level f in
  let st = { opts; f; frame; items = []; rodata = []; jt_count = 0; module_of } in
  let fn = f.Ir.f_name in
  (* prologue *)
  if not frame.frameless then begin
    push st (A_loc (f.Ir.f_file, f.Ir.f_line));
    ins st (Insn.Push Reg.fp);
    ins st (Insn.Mov_rr (Reg.fp, Reg.sp));
    push st (A_cfi T.Cfi_establish);
    if frame.locals > 0 then begin
      ins st (Insn.Alu_ri (Insn.Sub, Reg.sp, Insn.Imm frame.locals));
      push st (A_cfi (T.Cfi_def_locals frame.locals))
    end;
    List.iteri
      (fun k r ->
        ins st (Insn.Push r);
        push st (A_cfi (T.Cfi_save (r, frame.locals + (8 * (k + 1))))))
      frame.saved;
    List.iteri (fun i p -> store_temp st p (Reg.of_int (i + 1))) f.Ir.f_params
  end
  else push st (A_loc (f.Ir.f_file, f.Ir.f_line));
  (* body *)
  let layout = Blocklayout.order ~opt_level:opts.opt_level f in
  let hdrs = loop_headers layout f in
  let rec emit_blocks ?prev = function
    | [] -> ()
    | l :: rest ->
        let b = Ir.block f l in
        (* align loop headers, but only when the previous block does not
           fall through into this one: executed alignment NOPs would cost
           more than the alignment saves *)
        let falls_through =
          match prev with
          | Some p -> List.mem l (Ir.successors (Ir.block f p).Ir.term)
          | None -> false
        in
        if
          opts.align_loops && opts.opt_level >= 2 && Hashtbl.mem hdrs l
          && l <> f.Ir.f_entry && not falls_through
        then push st (A_align 16);
        push st (A_label (lbl fn l));
        let lp = Option.map (fun h -> lbl fn h) b.Ir.lp in
        let last_line = ref (-1) in
        List.iter
          (fun (i, line) ->
            if line <> !last_line then begin
              push st (A_loc (f.Ir.f_file, line));
              last_line := line
            end;
            emit_insn st ~lp i)
          b.Ir.insns;
        if b.Ir.term_line <> !last_line then
          push st (A_loc (f.Ir.f_file, b.Ir.term_line));
        let next = match rest with l' :: _ -> Some l' | [] -> None in
        emit_term st ~lp ~next b.Ir.term;
        emit_blocks ~prev:l rest
  in
  emit_blocks layout;
  (* epilogue *)
  if not frame.frameless then begin
    push st (A_label (epi_lbl fn));
    List.iteri
      (fun k r ->
        ignore k;
        ins st (Insn.Pop r);
        push st (A_cfi (T.Cfi_restore r)))
      (List.rev frame.saved);
    ins st (Insn.Mov_rr (Reg.sp, Reg.fp));
    ins st (Insn.Pop Reg.fp);
    push st (A_cfi T.Cfi_teardown);
    ins st Insn.Repz_ret
  end;
  ( {
      af_name = fn;
      af_global = true;
      af_align = Bolt_obj.Layout.func_align;
      af_emit_fde = true;
      af_body = List.rev st.items;
    },
    List.rev st.rodata )

(* ---- whole program ---- *)

(* Generate one assembly unit per source module (or a single unit under
   LTO).  [extra_bss] lets the driver add the PGO counter array. *)
let gen_program ~opts ?(extra_bss = []) (p : Ir.program) : (string * unit_) list =
  let module_of = p.Ir.p_module_of in
  let groups : (string, Ir.func list) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun f ->
      let m = if opts.lto then "lto" else f.Ir.f_module in
      if not (Hashtbl.mem groups m) then order := m :: !order;
      Hashtbl.replace groups m (f :: (try Hashtbl.find groups m with Not_found -> [])))
    p.Ir.p_funcs;
  let order = List.rev !order in
  let first = match order with m :: _ -> m | [] -> "main" in
  List.map
    (fun m ->
      let funcs = List.rev (Hashtbl.find groups m) in
      let outs = List.map (gen_func ~opts ~module_of) funcs in
      let afuncs = List.map fst outs in
      let jt_rodata = List.concat_map snd outs in
      (* globals live with the first unit *)
      let rodata, data, bss =
        if m = first then
          List.fold_left
            (fun (ro, da, bs) (name, g) ->
              match g with
              | Ir.Gscalar v ->
                  (ro, da @ [ D_label (gsym name, true); D_quad (Insn.Imm v) ], bs)
              | Ir.Garray n -> (ro, da, bs @ [ (gsym name, 8 * n, true) ])
              | Ir.Gconst arr ->
                  ( ro
                    @ [ D_align 8; D_label (gsym name, true) ]
                    @ List.map (fun v -> D_quad (Insn.Imm v)) (Array.to_list arr),
                    da,
                    bs ))
            ([], [], extra_bss) p.Ir.p_globals
        else ([], [], [])
      in
      ( m,
        {
          u_funcs = afuncs;
          u_rodata = rodata @ jt_rodata;
          u_data = data;
          u_bss = bss;
          u_function_sections = opts.function_sections;
        } ))
    order
