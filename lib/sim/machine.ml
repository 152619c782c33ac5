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
   information, programs with exceptions break here, visibly.

   Execution is block-cached: each straight-line run of code is decoded
   once, the first time control reaches its entry, and then replayed
   instruction by instruction with exactly the charges, counts, samples
   and errors of a fetch-decode-execute loop. *)

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

(* A block: the straight-line run of instructions from one entry through
   the first control transfer, cut short before the end of its text
   section or a byte that starts no instruction.  [pcs.(k)] is the
   address of [insns.(k)] and [pcs.(n)] the address after the last of
   the [n].  [refetch.(k)] says that instruction [k] starts on another
   fetch line than instruction [k - 1] ([false] for the entry, whose
   fetch is charged before the block is looked up). *)
type block = { insns : Insn.t array; pcs : int array; refetch : bool array }

(* A text segment.  [sizes] holds, per byte offset, the encoded size of
   the instruction starting there, or 0 where none starts (inside an
   instruction, or an undecodable padding byte).  It is computed eagerly
   at load, so the decoder validates every start before the program
   runs.  Blocks are decoded lazily, the first time control reaches
   their entry, and kept in [memo] under the entry's offset: one chunk
   of [chunk_size] slots per stretch of text that executes, allocated on
   first use.  A jump into the middle of a block starts a block of its
   own. *)
type seg = {
  seg_base : int;
  seg_limit : int;
  data : Bytes.t;
  sizes : Bytes.t;
  memo : block array array;
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

(* Marks a memo slot whose entry has not executed yet. *)
let no_block = { insns = [||]; pcs = [||]; refetch = [||] }

let predecode (sec : Types.section) =
  let n = sec.sec_size in
  let sizes = Bytes.make n '\x00' in
  let pos = ref 0 in
  while !pos < n do
    match Codec.length sec.sec_data !pos with
    | sz ->
        Bytes.unsafe_set sizes !pos (Char.unsafe_chr sz);
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

let ends_block = function
  | Insn.Jmp _ | Insn.Jcc _ | Insn.Call _ | Insn.Call_ind _ | Insn.Call_mem _ | Insn.Ret
  | Insn.Repz_ret | Insn.Jmp_ind _ | Insn.Jmp_mem _ | Insn.Halt | Insn.Throw ->
      true
  | _ -> false

(* The front end fetches 64-byte lines. *)
let fetch_line_bits = 6
let fetch_line pc = pc lsr fetch_line_bits

(* Decode the block entered at [off] of [s], a start [sizes] vouches
   for.  It stops where the per-instruction fetch would leave [s]: past
   its end, or at an address an earlier segment also holds. *)
let decode_block segs s off =
  let rec go off insns pcs =
    let insn, sz = Codec.decode s.data off in
    let insns = insn :: insns and pcs = (s.seg_base + off) :: pcs in
    let next = off + sz in
    if
      ends_block insn
      || next >= Bytes.length s.sizes
      || Bytes.unsafe_get s.sizes next = '\x00'
      || seg_at segs (s.seg_base + next) 0 != s
    then (insns, (s.seg_base + next) :: pcs)
    else go next insns pcs
  in
  let insns, pcs = go off [] [] in
  let insns = Array.of_list (List.rev insns) and pcs = Array.of_list (List.rev pcs) in
  {
    insns;
    pcs;
    refetch =
      Array.init (Array.length insns) (fun k ->
          k > 0 && fetch_line pcs.(k) <> fetch_line pcs.(k - 1));
  }

(* The block entered at [pc]: "jump outside text" unless a segment holds
   [pc], "misaligned execution" unless an instruction starts there. *)
let block_at segs pc =
  let s = seg_at segs pc 0 in
  let off = pc - s.seg_base in
  let k = off lsr chunk_bits in
  let chunk =
    let c = Array.unsafe_get s.memo k in
    if Array.length c > 0 then c
    else begin
      let c = Array.make chunk_size no_block in
      s.memo.(k) <- c;
      c
    end
  in
  let b = Array.unsafe_get chunk (off land (chunk_size - 1)) in
  if b != no_block then b
  else begin
    if Bytes.unsafe_get s.sizes off = '\x00' then
      raise (Sim_error (Printf.sprintf "misaligned execution at %#x" pc));
    let b = decode_block segs s off in
    chunk.(off land (chunk_size - 1)) <- b;
    b
  end

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

(* Per-sample LBR aggregates, keyed by a pair of addresses: an open-
   addressing table over int arrays, so a lookup neither allocates nor
   calls the polymorphic hash.  Entries keep the order their keys first
   appeared; [flush] adds them to a raw-profile table in that order, which
   leaves the table exactly as adding each key when first seen does. *)
module Pairs = struct
  type t = {
    mutable slots : int array; (* entry index + 1 per hash slot, 0 = free *)
    mutable a : int array;
    mutable b : int array;
    mutable count : int array;
    mutable marks : int array;
    mutable len : int;
  }

  let create () =
    let e = Array.make 16 0 in
    {
      slots = Array.make 32 0;
      a = e;
      b = Array.copy e;
      count = Array.copy e;
      marks = Array.copy e;
      len = 0;
    }

  let rec probe slots mask a b ea eb i =
    let e = Array.unsafe_get slots i in
    if e = 0 || (Array.unsafe_get ea (e - 1) = a && Array.unsafe_get eb (e - 1) = b) then i
    else probe slots mask a b ea eb ((i + 1) land mask)

  let slot t a b =
    let mask = Array.length t.slots - 1 in
    probe t.slots mask a b t.a t.b ((((a * 0x2545F491) lxor b) * 0x9E3779B1) lsr 8 land mask)

  let grow t =
    let cap = 2 * Array.length t.a in
    let extend x = Array.append x (Array.make (cap - Array.length x) 0) in
    t.a <- extend t.a;
    t.b <- extend t.b;
    t.count <- extend t.count;
    t.marks <- extend t.marks;
    t.slots <- Array.make (2 * cap) 0;
    for e = 0 to t.len - 1 do
      t.slots.(slot t t.a.(e) t.b.(e)) <- e + 1
    done

  (* Count one more [(a, b)], and one more mark when [mark]. *)
  let add t a b mark =
    let i = slot t a b in
    let e = t.slots.(i) - 1 in
    if e >= 0 then begin
      t.count.(e) <- t.count.(e) + 1;
      if mark then t.marks.(e) <- t.marks.(e) + 1
    end
    else begin
      let e = t.len in
      t.slots.(i) <- e + 1;
      t.a.(e) <- a;
      t.b.(e) <- b;
      t.count.(e) <- 1;
      t.marks.(e) <- (if mark then 1 else 0);
      t.len <- e + 1;
      if 2 * t.len > Array.length t.a then grow t
    end

  let flush t tbl value =
    for e = 0 to t.len - 1 do
      Hashtbl.add tbl (t.a.(e), t.b.(e)) (value t.count.(e) t.marks.(e))
    done
end

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
  regs.((Reg.sp :> int)) <- Layout.stack_top;
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

  (* Charges below the L1 caches: the shared L2, then the LLC. *)
  let l2_access addr =
    if not (Cache.access l2 addr) then begin
      c.l2_misses <- c.l2_misses + 1;
      c.qcycles <- c.qcycles + config.q_l2_miss;
      if not (Cache.access llc addr) then begin
        c.llc_misses <- c.llc_misses + 1;
        c.qcycles <- c.qcycles + config.q_llc_miss
      end
    end
  in

  (* An access on the line of the previous data access hits the L1D, and
     one on the page of the previous data access hits the D-TLB, without
     looking at the set: that access left the line (page) in front of its
     set, and an access to the line in front changes nothing in a
     [Cache].  -1, which every set starts with in front, stands for the
     line and page before the first access. *)
  let dline = ref (-1) and dpage = ref (-1) in
  let dtlb_access addr =
    if not (Cache.access dtlb addr) then begin
      c.dtlb_misses <- c.dtlb_misses + 1;
      c.qcycles <- c.qcycles + config.q_tlb_miss
    end
  in
  let l1d_access addr =
    if not (Cache.access l1d addr) then begin
      c.l1d_misses <- c.l1d_misses + 1;
      c.qcycles <- c.qcycles + config.q_l1_miss;
      l2_access addr
    end
  in
  (* inlined into [read_mem] and [write_mem], as is [data_page]: on the
     common path a call would cost as much as the checks *)
  let daccess addr =
    c.l1d_accesses <- c.l1d_accesses + 1;
    let page = addr lsr dtlb.Cache.line_bits in
    if page <> !dpage then begin
      dpage := page;
      dtlb_access addr
    end;
    let line = addr lsr l1d.Cache.line_bits in
    if line <> !dline then begin
      dline := line;
      l1d_access addr
    end
  [@@inline] in
  (* The memory page of the last data access.  An aligned word never
     crosses a page, so it is read and written in place; [Memory] gets
     the rest. *)
  let mpage = ref (-1) and mbytes = ref Bytes.empty in
  let data_page addr =
    let p = addr lsr Memory.page_bits in
    if p <> !mpage then begin
      mpage := p;
      mbytes := Memory.page mem addr
    end;
    !mbytes
  [@@inline] in
  let read_mem addr =
    daccess addr;
    if addr land 7 = 0 then
      Int64.to_int (Bytes.get_int64_le (data_page addr) (addr land (Memory.page_size - 1)))
    else Memory.read64 mem addr
  in
  let write_mem addr v =
    daccess addr;
    if addr land 7 = 0 then
      Bytes.set_int64_le (data_page addr) (addr land (Memory.page_size - 1)) (Int64.of_int v)
    else Memory.write64 mem addr v
  in
  (* [Reg.t] is an int in 0..15, the register file's indices *)
  let get (r : Reg.t) = Array.unsafe_get regs (r :> int) in
  let set (r : Reg.t) v = Array.unsafe_set regs (r :> int) v in
  let alu op d b =
    let a = get d in
    match op with
    | Insn.Cmp -> flags := compare a b
    | Insn.Test -> flags := compare (a land b) 0
    | Insn.Add -> set d (a + b)
    | Insn.Sub -> set d (a - b)
    | Insn.Mul -> set d (a * b)
    | Insn.Div -> set d (if b = 0 then 0 else a / b)
    | Insn.Mod -> set d (if b = 0 then 0 else a mod b)
    | Insn.And -> set d (a land b)
    | Insn.Or -> set d (a lor b)
    | Insn.Xor -> set d (a lxor b)
    | Insn.Shl -> set d (a lsl (b land 63))
    | Insn.Shr -> set d (a asr (b land 63))
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

  (* front-end charge when the fetch line changes; a line on the page of
     the previous line fetch hits the I-TLB as above *)
  let ipage = ref (-1) in
  let fetch addr =
    let line = fetch_line addr in
    if line <> !cur_line then begin
      cur_line := line;
      c.l1i_accesses <- c.l1i_accesses + 1;
      (match heat with
      | Some h ->
          let key = line lsl fetch_line_bits in
          Hashtbl.replace h key (1 + try Hashtbl.find h key with Not_found -> 0)
      | None -> ());
      let page = addr lsr itlb.Cache.line_bits in
      if page <> !ipage then begin
        ipage := page;
        if not (Cache.access itlb addr) then begin
          c.itlb_misses <- c.itlb_misses + 1;
          c.qcycles <- c.qcycles + config.q_tlb_miss
        end
      end;
      if not (Cache.access l1i addr) then begin
        c.l1i_misses <- c.l1i_misses + 1;
        c.qcycles <- c.qcycles + config.q_l1_miss;
        l2_access addr
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
                        set r (Memory.read64 mem (fp - slot)))
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
  let branches = Pairs.create () and traces = Pairs.create () in
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
            Pairs.add branches f t lbr.lmis.(idx);
            if k + 1 < n then begin
              let idx' = (idx + 1) mod lbr_depth in
              let start = t and stop = lbr.lfrom.(idx') in
              if stop >= start && stop - start < 65536 then Pairs.add traces start stop false
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
    let entry = !ip in
    fetch entry;
    let b = block_at img.segs entry in
    let insns = b.insns and pcs = b.pcs and refetch = b.refetch in
    (* each instruction in the order the per-instruction loop kept:
       fuel (the entry's twice), fetch where the line changes, count,
       execute, sample *)
    for k = 0 to Array.length insns - 1 do
      if c.instructions > fuel then raise (Sim_error "out of fuel");
      let pc = Array.unsafe_get pcs k in
      if Array.unsafe_get refetch k then fetch pc;
      let next = Array.unsafe_get pcs (k + 1) in
      c.instructions <- c.instructions + 1;
      c.qcycles <- c.qcycles + config.q_base;
      ip := next;
      (match Array.unsafe_get insns k with
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
      | Insn.Push r -> push (get r)
      | Insn.Pop r -> set r (pop ())
      | Insn.Mov_rr (d, s) -> set d (get s)
      | Insn.Mov_ri (d, Insn.Imm v, _) -> set d v
      | Insn.Load (d, b, off) -> set d (read_mem (get b + off))
      | Insn.Store (b, off, s) -> write_mem (get b + off) (get s)
      | Insn.Load_abs (d, Insn.Imm a) -> set d (read_mem a)
      | Insn.Store_abs (Insn.Imm a, s) -> write_mem a (get s)
      | Insn.Lea (d, Insn.Imm a) -> set d a
      | Insn.Lea_rel (d, Insn.Imm disp) -> set d (next + disp)
      | Insn.Alu_rr (op, d, s) -> alu op d (get s)
      | Insn.Alu_ri (op, d, Insn.Imm b) -> alu op d b
      | Insn.Setcc (cond, r) -> set r (if Cond.holds cond !flags then 1 else 0)
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
          let target = get r in
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
          let target = get r in
          let mispred = Bpred.taken_target bp pc target in
          taken_to ~from:pc ~target ~mispred
      | Insn.Jmp_mem (Insn.Imm slot) ->
          c.branches <- c.branches + 1;
          let target = read_mem slot in
          let mispred = Bpred.taken_target bp pc target in
          taken_to ~from:pc ~target ~mispred
      | Insn.In_ r ->
          set r
            (if !input_pos < Array.length input then begin
               let v = input.(!input_pos) in
               incr input_pos;
               v
             end
             else 0)
      | Insn.Out r -> output := get r :: !output
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
    done
  done;
  Option.iter
    (fun p ->
      Pairs.flush branches p.rp_branches (fun n m -> (ref n, ref m));
      Pairs.flush traces p.rp_traces (fun n _ -> ref n))
    prof;
  {
    exit_code = !exit_code;
    output = List.rev !output;
    counters = c;
    profile = prof;
    heat;
    uncaught_exception = !uncaught;
    final_mem = mem;
  }
