(* Functional + timing simulator for BELF executables.

   This is the reproduction's stand-in for the paper's Intel testbed: it
   executes the program and charges a cycle cost driven by front-end
   structures (L1I, I-TLB, branch predictor, taken-branch bubbles) and the
   data side (L1D, D-TLB), with a shared L2 and LLC.  Cache and TLB sizes
   are deliberately small relative to the synthetic workloads so the
   binaries are front-end bound, like the 100MB+ data-center binaries the
   paper measures.

   It also implements the profiling hardware: an LBR ring of the last 32
   taken branches and event-based sampling (cycles, instructions or taken
   branches), with optional skid when PEBS-style precision is off.

   Exception semantics: [throw] consults the LSDA of the active frame and
   unwinds frames using the CFI records — if a rewriter breaks frame
   information, programs with exceptions break here, visibly. *)

open Bolt_isa
open Bolt_obj

type config = {
  l1i_size : int;
  l1d_size : int;
  l2_size : int;
  llc_size : int;
  line : int;
  itlb_entries : int;
  dtlb_entries : int;
  page : int;
  (* quarter-cycle penalties *)
  q_base : int;
  q_taken : int;
  q_mispredict : int;
  q_l1_miss : int;
  q_l2_miss : int;
  q_llc_miss : int;
  q_tlb_miss : int;
}

let default_config =
  {
    l1i_size = 8192;
    l1d_size = 16384;
    l2_size = 65536;
    llc_size = 1048576;
    line = 64;
    itlb_entries = 16;
    dtlb_entries = 32;
    page = 4096;
    q_base = 1;
    q_taken = 1;
    q_mispredict = 60;
    q_l1_miss = 32;
    q_l2_miss = 80;
    q_llc_miss = 600;
    q_tlb_miss = 100;
  }

type event = Ev_cycles | Ev_instructions | Ev_taken_branches

type sample_cfg = {
  event : event;
  period : int;
  lbr : bool;
  precise : bool; (* PEBS-style: no skid *)
}

type counters = {
  mutable instructions : int;
  mutable qcycles : int;
  mutable branches : int; (* executed branch instructions, cond + uncond *)
  mutable cond_branches : int;
  mutable cond_taken : int;
  mutable taken_branches : int; (* all taken control transfers *)
  mutable calls : int;
  mutable branch_misses : int;
  mutable l1i_accesses : int;
  mutable l1i_misses : int;
  mutable l1d_accesses : int;
  mutable l1d_misses : int;
  mutable l2_misses : int;
  mutable llc_misses : int;
  mutable itlb_misses : int;
  mutable dtlb_misses : int;
  mutable throws : int;
}

let new_counters () =
  {
    instructions = 0;
    qcycles = 0;
    branches = 0;
    cond_branches = 0;
    cond_taken = 0;
    taken_branches = 0;
    calls = 0;
    branch_misses = 0;
    l1i_accesses = 0;
    l1i_misses = 0;
    l1d_accesses = 0;
    l1d_misses = 0;
    l2_misses = 0;
    llc_misses = 0;
    itlb_misses = 0;
    dtlb_misses = 0;
    throws = 0;
  }

let cycles c = c.qcycles / 4

(* Raw sample aggregates: the perf.data analog. *)
type raw_profile = {
  rp_branches : (int * int, int ref * int ref) Hashtbl.t; (* (from,to) -> count, mispreds *)
  rp_traces : (int * int, int ref) Hashtbl.t; (* fall-through ranges between LBR entries *)
  rp_ips : (int, int ref) Hashtbl.t; (* plain IP samples (non-LBR mode) *)
  rp_lbr : bool;
  mutable rp_samples : int;
}

let new_raw_profile lbr =
  {
    rp_branches = Hashtbl.create 4096;
    rp_traces = Hashtbl.create 4096;
    rp_ips = Hashtbl.create 4096;
    rp_lbr = lbr;
    rp_samples = 0;
  }

exception Sim_error of string

type outcome = {
  exit_code : int;
  output : int list;
  counters : counters;
  profile : raw_profile option;
  heat : (int, int) Hashtbl.t option; (* line address -> fetches *)
  uncaught_exception : bool;
  final_mem : Memory.t; (* post-run memory, e.g. to dump PGO counters *)
}

(* ---- executable image ---- *)

(* A text segment.  [sizes] holds, per byte offset, the encoded size of
   the instruction starting there, or 0 where none starts (inside an
   instruction, or an undecodable padding byte).  It is computed eagerly
   at load, so the decoder validates every start before the program
   runs.  The instructions themselves are decoded again lazily, the
   first time their start executes, and kept in [memo]: one chunk of
   [chunk_size] slots per stretch of text that executes, allocated on
   first use. *)
type seg = {
  seg_base : int;
  seg_limit : int;
  data : Bytes.t;
  sizes : Bytes.t;
  memo : Insn.t array array;
}

type image = {
  segs : seg array; (* in section order *)
  funcs : Symtab.t;
  meta : Objfile.Index.t; (* frame info and exception tables by start *)
  entry : int;
  mem : Memory.t;
}

let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits

(* Marks a memo slot whose instruction has not executed yet; the
   decoder never produces a zero-byte nop. *)
let undecoded = Insn.Nop 0

let predecode (sec : Types.section) =
  let n = sec.sec_size in
  let sizes = Bytes.make n '\x00' in
  let pos = ref 0 in
  while !pos < n do
    match Codec.decode sec.sec_data !pos with
    | _, sz ->
        Bytes.set sizes !pos (Char.chr sz);
        pos := !pos + sz
    | exception Codec.Decode_error _ ->
        (* tolerate padding bytes that are not valid instructions *)
        incr pos
  done;
  {
    seg_base = sec.sec_addr;
    seg_limit = sec.sec_addr + n;
    data = sec.sec_data;
    sizes;
    memo = Array.make ((n + chunk_size - 1) lsr chunk_bits) [||];
  }

let rec seg_at segs pc i =
  if i >= Array.length segs then
    raise (Sim_error (Printf.sprintf "jump outside text: %#x" pc))
  else
    let s = Array.unsafe_get segs i in
    if pc >= s.seg_base && pc < s.seg_limit then s else seg_at segs pc (i + 1)

let decode_into s chunk off =
  let i, _ = Codec.decode s.data off in
  chunk.(off land (chunk_size - 1)) <- i;
  i

(* The instruction starting at [off], which [sizes] says is a start. *)
let insn_at s off =
  let k = off lsr chunk_bits in
  let chunk =
    let c = Array.unsafe_get s.memo k in
    if Array.length c > 0 then c
    else begin
      let c = Array.make chunk_size undecoded in
      s.memo.(k) <- c;
      c
    end
  in
  let i = Array.unsafe_get chunk (off land (chunk_size - 1)) in
  if i != undecoded then i else decode_into s chunk off

let load (exe : Objfile.t) : image =
  if exe.kind <> Objfile.Executable then raise (Sim_error "not an executable");
  let mem = Memory.create () in
  let segs = ref [] in
  List.iter
    (fun (s : Types.section) ->
      (match s.sec_kind with
      | Types.Bss -> () (* zero-initialised by sparse memory *)
      | _ -> Memory.load_bytes mem s.sec_addr s.sec_data);
      if s.sec_kind = Types.Text then segs := predecode s :: !segs)
    exe.sections;
  {
    segs = Array.of_list (List.rev !segs);
    funcs = Symtab.create exe.symbols;
    meta = Objfile.Index.create exe;
    entry = exe.entry;
    mem;
  }

(* ---- execution ---- *)

type lbr_ring = {
  lfrom : int array;
  lto : int array;
  lmis : bool array;
  mutable lpos : int;
  mutable lcount : int;
}

let lbr_depth = 32

let new_lbr () =
  {
    lfrom = Array.make lbr_depth 0;
    lto = Array.make lbr_depth 0;
    lmis = Array.make lbr_depth false;
    lpos = 0;
    lcount = 0;
  }

let lbr_record r f t m =
  r.lfrom.(r.lpos) <- f;
  r.lto.(r.lpos) <- t;
  r.lmis.(r.lpos) <- m;
  r.lpos <- (r.lpos + 1) mod lbr_depth;
  if r.lcount < lbr_depth then r.lcount <- r.lcount + 1

let run ?(config = default_config) ?(sampling : sample_cfg option)
    ?(heatmap = false) ?(fuel = 2_000_000_000) (exe : Objfile.t) ~(input : int array) :
    outcome =
  let img = load exe in
  let mem = img.mem in
  let c = new_counters () in
  let l1i = Cache.create ~size:config.l1i_size ~line:config.line ~assoc:4 in
  let l1d = Cache.create ~size:config.l1d_size ~line:config.line ~assoc:4 in
  let l2 = Cache.create ~size:config.l2_size ~line:config.line ~assoc:8 in
  let llc = Cache.create ~size:config.llc_size ~line:config.line ~assoc:16 in
  let itlb = Cache.create ~size:(config.itlb_entries * config.page) ~line:config.page ~assoc:4 in
  let dtlb = Cache.create ~size:(config.dtlb_entries * config.page) ~line:config.page ~assoc:4 in
  let bp = Bpred.create () in
  let lbr = new_lbr () in
  let heat = if heatmap then Some (Hashtbl.create 4096) else None in
  let prof = Option.map (fun (s : sample_cfg) -> new_raw_profile s.lbr) sampling in
  let regs = Array.make 16 0 in
  regs.(Reg.to_int Reg.sp) <- Layout.stack_top;
  let flags = ref 0 in
  let input_pos = ref 0 in
  let output = ref [] in
  let ip = ref img.entry in
  let running = ref true in
  let exit_code = ref 0 in
  let uncaught = ref false in
  let cur_line = ref (-1) in
  (* sentinel return address: returning to 0 exits *)
  regs.(15) <- regs.(15) - 8;
  Memory.write64 mem regs.(15) 0;

  let daccess addr =
    c.l1d_accesses <- c.l1d_accesses + 1;
    if not (Cache.access dtlb addr) then begin
      c.dtlb_misses <- c.dtlb_misses + 1;
      c.qcycles <- c.qcycles + config.q_tlb_miss
    end;
    if not (Cache.access l1d addr) then begin
      c.l1d_misses <- c.l1d_misses + 1;
      c.qcycles <- c.qcycles + config.q_l1_miss;
      if not (Cache.access l2 addr) then begin
        c.l2_misses <- c.l2_misses + 1;
        c.qcycles <- c.qcycles + config.q_l2_miss;
        if not (Cache.access llc addr) then begin
          c.llc_misses <- c.llc_misses + 1;
          c.qcycles <- c.qcycles + config.q_llc_miss
        end
      end
    end
  in
  let read_mem addr =
    daccess addr;
    Memory.read64 mem addr
  in
  let write_mem addr v =
    daccess addr;
    Memory.write64 mem addr v
  in
  let push v =
    regs.(15) <- regs.(15) - 8;
    write_mem regs.(15) v
  in
  let pop () =
    let v = read_mem regs.(15) in
    regs.(15) <- regs.(15) + 8;
    v
  in

  (* front-end charge when the fetch line changes *)
  let fetch addr =
    let line = addr lsr 6 in
    if line <> !cur_line then begin
      cur_line := line;
      c.l1i_accesses <- c.l1i_accesses + 1;
      (match heat with
      | Some h ->
          let key = line lsl 6 in
          Hashtbl.replace h key (1 + try Hashtbl.find h key with Not_found -> 0)
      | None -> ());
      if not (Cache.access itlb addr) then begin
        c.itlb_misses <- c.itlb_misses + 1;
        c.qcycles <- c.qcycles + config.q_tlb_miss
      end;
      if not (Cache.access l1i addr) then begin
        c.l1i_misses <- c.l1i_misses + 1;
        c.qcycles <- c.qcycles + config.q_l1_miss;
        if not (Cache.access l2 addr) then begin
          c.l2_misses <- c.l2_misses + 1;
          c.qcycles <- c.qcycles + config.q_l2_miss;
          if not (Cache.access llc addr) then begin
            c.llc_misses <- c.llc_misses + 1;
            c.qcycles <- c.qcycles + config.q_llc_miss
          end
        end
      end
    end
  in

  (* taken control transfer bookkeeping *)
  let taken_to ~from ~target ~mispred =
    c.taken_branches <- c.taken_branches + 1;
    c.qcycles <- c.qcycles + config.q_taken;
    if mispred then begin
      c.branch_misses <- c.branch_misses + 1;
      c.qcycles <- c.qcycles + config.q_mispredict
    end;
    lbr_record lbr from target mispred;
    ip := target
  in

  (* ---- exception unwinding ---- *)
  let landing_sp fp (state : Types.cfi_state) =
    fp - state.cfa_locals - (8 * List.length state.cfa_saved)
  in
  let rec unwind at_ip =
    match Symtab.covering img.funcs at_ip with
    | None -> None
    | Some fn -> (
        let start = fn.Types.sym_value in
        let fde = Objfile.Index.fde img.meta start in
        let off = at_ip - start in
        let pad =
          match Objfile.Index.lsda img.meta start with
          | None -> None
          | Some l ->
              List.find_opt
                (fun (e : Types.lsda_entry) ->
                  off >= e.lsda_start && off < e.lsda_start + e.lsda_len)
                l.lsda_entries
        in
        match pad with
        | Some e -> (
            (* the stack pointer the landing pad expects is derived from
               the frame state at the covered call site; the pad itself may
               live in a split-off cold fragment with its own descriptor *)
            match fde with
            | Some fde ->
                let st = Types.cfi_state_at fde.fde_cfi off in
                if st.cfa_established then begin
                  regs.(15) <- landing_sp regs.(14) st;
                  Some (start + e.lsda_pad)
                end
                else Some (start + e.lsda_pad)
            | None -> Some (start + e.lsda_pad))
        | None -> (
            (* pop this frame and continue in the caller *)
            match fde with
            | None -> None (* can't unwind through frame-info-less code *)
            | Some fde ->
                let st = Types.cfi_state_at fde.fde_cfi off in
                let ret =
                  if st.cfa_established then begin
                    let fp = regs.(14) in
                    List.iter
                      (fun (r, slot) ->
                        regs.(Reg.to_int r) <- Memory.read64 mem (fp - slot))
                      st.cfa_saved;
                    let ret = Memory.read64 mem (fp + 8) in
                    regs.(15) <- fp + 16;
                    regs.(14) <- Memory.read64 mem fp;
                    ret
                  end
                  else begin
                    let ret = Memory.read64 mem regs.(15) in
                    regs.(15) <- regs.(15) + 8;
                    ret
                  end
                in
                if ret = 0 then None else unwind (ret - 1)))
  in

  (* ---- sampling ---- *)
  let sample_due = ref max_int in
  let event_count () =
    match sampling with
    | None -> 0
    | Some s -> (
        match s.event with
        | Ev_cycles -> c.qcycles
        | Ev_instructions -> c.instructions
        | Ev_taken_branches -> c.taken_branches)
  in
  (match sampling with Some s -> sample_due := s.period | None -> ());
  let skid_pending = ref false in
  let take_sample () =
    match (sampling, prof) with
    | Some s, Some p ->
        p.rp_samples <- p.rp_samples + 1;
        if s.lbr then begin
          (* read the full LBR stack *)
          let n = lbr.lcount in
          for k = 0 to n - 1 do
            let idx = (lbr.lpos - n + k + (2 * lbr_depth)) mod lbr_depth in
            let f = lbr.lfrom.(idx) and t = lbr.lto.(idx) in
            (match Hashtbl.find_opt p.rp_branches (f, t) with
            | Some (cnt, mis) ->
                incr cnt;
                if lbr.lmis.(idx) then incr mis
            | None ->
                Hashtbl.add p.rp_branches (f, t)
                  (ref 1, ref (if lbr.lmis.(idx) then 1 else 0)));
            if k + 1 < n then begin
              let idx' = (idx + 1) mod lbr_depth in
              let start = t and stop = lbr.lfrom.(idx') in
              if stop >= start && stop - start < 65536 then
                match Hashtbl.find_opt p.rp_traces (start, stop) with
                | Some r -> incr r
                | None -> Hashtbl.add p.rp_traces (start, stop) (ref 1)
            end
          done
        end
        else begin
          let key = !ip in
          match Hashtbl.find_opt p.rp_ips key with
          | Some r -> incr r
          | None -> Hashtbl.add p.rp_ips key (ref 1)
        end
    | _ -> ()
  in

  (* ---- main loop ---- *)
  while !running do
    if c.instructions > fuel then raise (Sim_error "out of fuel");
    let pc = !ip in
    fetch pc;
    let s = seg_at img.segs pc 0 in
    let off = pc - s.seg_base in
    let sz = Char.code (Bytes.unsafe_get s.sizes off) in
    if sz = 0 then raise (Sim_error (Printf.sprintf "misaligned execution at %#x" pc));
    let insn = insn_at s off in
    let next = pc + sz in
    c.instructions <- c.instructions + 1;
    c.qcycles <- c.qcycles + config.q_base;
    ip := next;
    (match insn with
    | Insn.Halt ->
        exit_code := regs.(0);
        running := false
    | Insn.Nop _ -> ()
    | Insn.Ret | Insn.Repz_ret ->
        let target = pop () in
        let mispred = Bpred.pop_ras bp target in
        if target = 0 then begin
          exit_code := regs.(0);
          running := false
        end
        else taken_to ~from:pc ~target ~mispred
    | Insn.Push r -> push regs.(Reg.to_int r)
    | Insn.Pop r -> regs.(Reg.to_int r) <- pop ()
    | Insn.Mov_rr (d, s) -> regs.(Reg.to_int d) <- regs.(Reg.to_int s)
    | Insn.Mov_ri (d, Insn.Imm v, _) -> regs.(Reg.to_int d) <- v
    | Insn.Load (d, b, off) -> regs.(Reg.to_int d) <- read_mem (regs.(Reg.to_int b) + off)
    | Insn.Store (b, off, s) -> write_mem (regs.(Reg.to_int b) + off) regs.(Reg.to_int s)
    | Insn.Load_abs (d, Insn.Imm a) -> regs.(Reg.to_int d) <- read_mem a
    | Insn.Store_abs (Insn.Imm a, s) -> write_mem a regs.(Reg.to_int s)
    | Insn.Lea (d, Insn.Imm a) -> regs.(Reg.to_int d) <- a
    | Insn.Lea_rel (d, Insn.Imm disp) -> regs.(Reg.to_int d) <- next + disp
    | Insn.Alu_rr (op, d, s) ->
        let a = regs.(Reg.to_int d) and b = regs.(Reg.to_int s) in
        (match op with
        | Insn.Cmp -> flags := compare a b
        | Insn.Test -> flags := compare (a land b) 0
        | Insn.Add -> regs.(Reg.to_int d) <- a + b
        | Insn.Sub -> regs.(Reg.to_int d) <- a - b
        | Insn.Mul -> regs.(Reg.to_int d) <- a * b
        | Insn.Div -> regs.(Reg.to_int d) <- (if b = 0 then 0 else a / b)
        | Insn.Mod -> regs.(Reg.to_int d) <- (if b = 0 then 0 else a mod b)
        | Insn.And -> regs.(Reg.to_int d) <- a land b
        | Insn.Or -> regs.(Reg.to_int d) <- a lor b
        | Insn.Xor -> regs.(Reg.to_int d) <- a lxor b
        | Insn.Shl -> regs.(Reg.to_int d) <- a lsl (b land 63)
        | Insn.Shr -> regs.(Reg.to_int d) <- a asr (b land 63))
    | Insn.Alu_ri (op, d, Insn.Imm b) ->
        let a = regs.(Reg.to_int d) in
        (match op with
        | Insn.Cmp -> flags := compare a b
        | Insn.Test -> flags := compare (a land b) 0
        | Insn.Add -> regs.(Reg.to_int d) <- a + b
        | Insn.Sub -> regs.(Reg.to_int d) <- a - b
        | Insn.Mul -> regs.(Reg.to_int d) <- a * b
        | Insn.Div -> regs.(Reg.to_int d) <- (if b = 0 then 0 else a / b)
        | Insn.Mod -> regs.(Reg.to_int d) <- (if b = 0 then 0 else a mod b)
        | Insn.And -> regs.(Reg.to_int d) <- a land b
        | Insn.Or -> regs.(Reg.to_int d) <- a lor b
        | Insn.Xor -> regs.(Reg.to_int d) <- a lxor b
        | Insn.Shl -> regs.(Reg.to_int d) <- a lsl (b land 63)
        | Insn.Shr -> regs.(Reg.to_int d) <- a asr (b land 63))
    | Insn.Setcc (cond, r) ->
        regs.(Reg.to_int r) <- (if Cond.holds cond !flags then 1 else 0)
    | Insn.Jmp (Insn.Imm rel, _) ->
        c.branches <- c.branches + 1;
        let target = next + rel in
        let mispred = Bpred.taken_target bp pc target in
        taken_to ~from:pc ~target ~mispred
    | Insn.Jcc (cond, Insn.Imm rel, _) ->
        c.branches <- c.branches + 1;
        c.cond_branches <- c.cond_branches + 1;
        let taken = Cond.holds cond !flags in
        let dir_mis = Bpred.cond_branch bp pc taken in
        if taken then begin
          c.cond_taken <- c.cond_taken + 1;
          taken_to ~from:pc ~target:(next + rel) ~mispred:dir_mis
        end
        else if dir_mis then begin
          c.branch_misses <- c.branch_misses + 1;
          c.qcycles <- c.qcycles + config.q_mispredict
        end
    | Insn.Call (Insn.Imm rel) ->
        c.branches <- c.branches + 1;
        c.calls <- c.calls + 1;
        push next;
        Bpred.push_ras bp next;
        let target = next + rel in
        let mispred = Bpred.taken_target bp pc target in
        taken_to ~from:pc ~target ~mispred
    | Insn.Call_ind r ->
        c.branches <- c.branches + 1;
        c.calls <- c.calls + 1;
        let target = regs.(Reg.to_int r) in
        push next;
        Bpred.push_ras bp next;
        let mispred = Bpred.taken_target bp pc target in
        taken_to ~from:pc ~target ~mispred
    | Insn.Call_mem (Insn.Imm slot) ->
        c.branches <- c.branches + 1;
        c.calls <- c.calls + 1;
        let target = read_mem slot in
        push next;
        Bpred.push_ras bp next;
        let mispred = Bpred.taken_target bp pc target in
        taken_to ~from:pc ~target ~mispred
    | Insn.Jmp_ind r ->
        c.branches <- c.branches + 1;
        let target = regs.(Reg.to_int r) in
        let mispred = Bpred.taken_target bp pc target in
        taken_to ~from:pc ~target ~mispred
    | Insn.Jmp_mem (Insn.Imm slot) ->
        c.branches <- c.branches + 1;
        let target = read_mem slot in
        let mispred = Bpred.taken_target bp pc target in
        taken_to ~from:pc ~target ~mispred
    | Insn.In_ r ->
        regs.(Reg.to_int r) <-
          (if !input_pos < Array.length input then begin
             let v = input.(!input_pos) in
             incr input_pos;
             v
           end
           else 0)
    | Insn.Out r -> output := regs.(Reg.to_int r) :: !output
    | Insn.Throw -> (
        c.throws <- c.throws + 1;
        match unwind pc with
        | Some pad ->
            c.qcycles <- c.qcycles + (config.q_mispredict * 4);
            cur_line := -1;
            ip := pad
        | None ->
            uncaught := true;
            exit_code := -1;
            running := false)
    | Insn.Mov_ri (_, Insn.Sym _, _)
    | Insn.Load_abs (_, Insn.Sym _)
    | Insn.Store_abs (Insn.Sym _, _)
    | Insn.Lea (_, Insn.Sym _)
    | Insn.Lea_rel (_, Insn.Sym _)
    | Insn.Alu_ri (_, _, Insn.Sym _)
    | Insn.Jmp (Insn.Sym _, _)
    | Insn.Jcc (_, Insn.Sym _, _)
    | Insn.Call (Insn.Sym _)
    | Insn.Call_mem (Insn.Sym _)
    | Insn.Jmp_mem (Insn.Sym _) ->
        raise (Sim_error "unresolved symbol in executable"));
    (* sampling *)
    (match sampling with
    | Some s ->
        if !skid_pending then begin
          skid_pending := false;
          take_sample ()
        end;
        if event_count () >= !sample_due then begin
          sample_due := !sample_due + s.period;
          if s.precise then take_sample () else skid_pending := true
        end
    | None -> ())
  done;
  {
    exit_code = !exit_code;
    output = List.rev !output;
    counters = c;
    profile = prof;
    heat;
    uncaught_exception = !uncaught;
    final_mem = mem;
  }
