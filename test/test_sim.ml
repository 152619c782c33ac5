(* Simulator unit tests: memory, caches, branch prediction, timing
   counters, LBR sampling, unwinding, load-time and fetch errors, the
   golden digests that pin every observable of a run, and random
   programs run against the per-instruction oracle. *)

open Bolt_sim
module Insn = Bolt_isa.Insn
module Layout = Bolt_obj.Layout

let test_memory_aligned () =
  let m = Memory.create () in
  Memory.write64 m 0x1000 123456789;
  Alcotest.(check int) "read back" 123456789 (Memory.read64 m 0x1000);
  Memory.write64 m 0x1000 (-42);
  Alcotest.(check int) "negative" (-42) (Memory.read64 m 0x1000)

let test_memory_unaligned_cross_page () =
  let m = Memory.create () in
  let addr = 4096 - 3 in
  Memory.write64 m addr 0x1122334455667788;
  Alcotest.(check int) "cross-page" 0x1122334455667788 (Memory.read64 m addr);
  (* bytes land on both pages *)
  Alcotest.(check int) "low byte" 0x88 (Memory.read8 m addr);
  Alcotest.(check int) "high byte" 0x11 (Memory.read8 m (addr + 7))

let memory_prop =
  QCheck.Test.make ~name:"memory write/read roundtrip" ~count:500
    (QCheck.make QCheck.Gen.(pair (int_range 0 1_000_000) (int_range min_int max_int)))
    (fun (addr, v) ->
      let m = Memory.create () in
      Memory.write64 m addr v;
      Memory.read64 m addr = v)

let test_load_bytes_pages () =
  (* an unaligned start, three page boundaries, a ragged end *)
  let n = (3 * Memory.page_size) + 17 in
  let b = Bytes.init n (fun i -> Char.chr (((i * 131) + 7) land 0xff)) in
  let addr = (5 * Memory.page_size) - 5 in
  let blit = Memory.create () and bytewise = Memory.create () in
  Memory.load_bytes blit addr b;
  Bytes.iteri (fun i c -> Memory.write8 bytewise (addr + i) (Char.code c)) b;
  for a = addr - 16 to addr + n + 16 do
    if Memory.read8 blit a <> Memory.read8 bytewise a then
      Alcotest.failf "byte %#x differs" a
  done;
  Alcotest.(check int) "word across a page boundary"
    (Memory.read64 bytewise (addr + 2))
    (Memory.read64 blit (addr + 2))

(* Pages that share one slot of the direct-mapped page memo, starting
   at the data segment: alternating between them evicts on every access. *)
let colliding_pages =
  let first = Layout.data_base / Memory.page_size in
  let slot = Memory.slot_of_key first in
  let rec collect page acc = function
    | 0 -> List.rev acc
    | k ->
        if Memory.slot_of_key page = slot then
          collect (page + 1) (page :: acc) (k - 1)
        else collect (page + 1) acc k
  in
  collect first [] 4

type mem_op = W64 of int * int | R64 of int | W8 of int * int | R8 of int

let show_mem_op = function
  | W64 (a, v) -> Printf.sprintf "W64 %#x %d" a v
  | R64 a -> Printf.sprintf "R64 %#x" a
  | W8 (a, v) -> Printf.sprintf "W8 %#x %d" a v
  | R8 a -> Printf.sprintf "R8 %#x" a

let gen_mem_ops =
  let open QCheck.Gen in
  let addr =
    map2
      (fun page off -> (page * Memory.page_size) + off)
      (oneofl colliding_pages)
      (oneof [ map (fun w -> w * 8) (int_range 0 511); int_range 0 (Memory.page_size - 1) ])
  in
  list_size (int_range 1 200)
    (frequency
       [
         (3, map2 (fun a v -> W64 (a, v)) addr int);
         (3, map (fun a -> R64 a) addr);
         (1, map2 (fun a v -> W8 (a, v)) addr (int_range 0 255));
         (1, map (fun a -> R8 a) addr);
       ])

(* Interleaved 8- and 64-bit writes and reads, aligned, unaligned and
   page-crossing, over pages that collide in the memo, against a
   byte-map model. *)
let memo_collision_prop =
  QCheck.Test.make ~name:"memory round-trips over colliding memo pages" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
       gen_mem_ops)
    (fun ops ->
      let m = Memory.create () in
      let model = Hashtbl.create 64 in
      let byte a = Option.value ~default:0 (Hashtbl.find_opt model a) in
      List.for_all
        (function
          | W64 (a, v) ->
              Memory.write64 m a v;
              for i = 0 to 7 do
                Hashtbl.replace model (a + i) ((v asr (8 * i)) land 0xff)
              done;
              true
          | W8 (a, v) ->
              Memory.write8 m a v;
              Hashtbl.replace model a v;
              true
          | R8 a -> Memory.read8 m a = byte a
          | R64 a ->
              let v = ref 0L in
              for i = 7 downto 0 do
                v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte (a + i)))
              done;
              Memory.read64 m a = Int64.to_int !v)
        ops)

let test_cache_basic () =
  let c = Cache.create ~size:1024 ~line:64 ~assoc:2 in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit" true (Cache.access c 0);
  Alcotest.(check bool) "same line hit" true (Cache.access c 63);
  Alcotest.(check bool) "next line miss" false (Cache.access c 64)

let test_cache_lru () =
  (* 2-way set: three conflicting lines evict the least recently used *)
  let c = Cache.create ~size:1024 ~line:64 ~assoc:2 in
  let set_stride = 64 * (1024 / 64 / 2) in
  ignore (Cache.access c 0);
  ignore (Cache.access c set_stride);
  ignore (Cache.access c 0);
  (* evicts set_stride, not 0 *)
  ignore (Cache.access c (2 * set_stride));
  Alcotest.(check bool) "0 survives" true (Cache.access c 0);
  Alcotest.(check bool) "stride evicted" false (Cache.access c set_stride)

let test_cache_power_of_two () =
  Alcotest.check_raises "3 sets"
    (Invalid_argument "Cache.create: 3 sets is not a power of two")
    (fun () -> ignore (Cache.create ~size:(3 * 64 * 2) ~line:64 ~assoc:2));
  (* one set, any number of ways: the evaluator's distinct-line counter *)
  let c = Cache.create ~size:(64 * 5) ~line:64 ~assoc:5 in
  for l = 0 to 4 do
    ignore (Cache.access c (l * 64))
  done;
  for l = 0 to 4 do
    Alcotest.(check bool) "fully associative: all five resident" true
      (Cache.access c (l * 64))
  done

(* Mask-indexed sets kept in order of use give exactly the hits and
   misses of the division-indexed, timestamped original, over
   power-of-two set counts, line sizes from 1 byte to a page, and 1 to 8
   ways. *)
let cache_oracle_prop =
  let open QCheck.Gen in
  let geometry =
    map3
      (fun sets_log line_log assoc -> (sets_log, line_log, assoc))
      (int_range 0 6) (int_range 0 12) (int_range 1 8)
  in
  let gen =
    pair geometry
      (list_size (int_range 1 400) (oneof [ int_range 0 65_535; int_bound max_int ]))
  in
  QCheck.Test.make ~name:"cache == division-indexed oracle" ~count:300 (QCheck.make gen)
    (fun ((sets_log, line_log, assoc), addrs) ->
      let line = 1 lsl line_log in
      let size = (1 lsl sets_log) * line * assoc in
      let c = Cache.create ~size ~line ~assoc in
      let o = Oracle.Cache.create ~size ~line ~assoc in
      List.for_all (fun a -> Cache.access c a = Oracle.Cache.access o a) addrs
      && c.Cache.accesses = List.length addrs)

let test_bpred_direction () =
  let p = Bpred.create () in
  (* a branch always taken becomes predicted after warm-up *)
  let misses = ref 0 in
  for _ = 1 to 100 do
    if Bpred.cond_branch p 0x400100 true then incr misses
  done;
  Alcotest.(check bool) "learns always-taken" true (!misses <= 2)

let test_bpred_ras () =
  let p = Bpred.create () in
  Bpred.push_ras p 100;
  Bpred.push_ras p 200;
  Alcotest.(check bool) "pop 200" false (Bpred.pop_ras p 200);
  Alcotest.(check bool) "pop 100" false (Bpred.pop_ras p 100);
  Alcotest.(check bool) "underflow mispredicts" true (Bpred.pop_ras p 300)

let test_btb_indirect () =
  let p = Bpred.create () in
  ignore (Bpred.taken_target p 0x400500 1000);
  Alcotest.(check bool) "stable target hits" false (Bpred.taken_target p 0x400500 1000);
  Alcotest.(check bool) "changed target misses" true (Bpred.taken_target p 0x400500 2000)

(* ---- end-to-end timing/counters on a compiled program ---- *)

let compile src = (Bolt_minic.Driver.compile [ ("m", src) ]).Bolt_minic.Driver.exe

let test_counters_sane () =
  let exe =
    compile
      {| fn main() {
           var i = 0;
           while (i < 1000) { i = i + 1; }
           out i;
           return 0;
         } |}
  in
  let o = Machine.run exe ~input:[||] in
  let c = o.Machine.counters in
  Alcotest.(check bool) "instructions counted" true (c.Machine.instructions > 4000);
  Alcotest.(check bool) "cycles >= insns/4" true
    (Machine.cycles c >= c.Machine.instructions / 4);
  Alcotest.(check bool) "cond branches" true (c.Machine.cond_branches >= 1000);
  Alcotest.(check bool) "taken < total transfers sane" true
    (c.Machine.taken_branches > 900)

let test_sampling_aggregates () =
  let exe =
    compile
      {| fn spin(n) { var j = 0; while (j < n) { j = j + 1; } return j; }
         fn main() { var i = 0; while (i < 500) { i = i + spin(20) / 20; } out i; return 0; } |}
  in
  let sampling =
    { Machine.event = Machine.Ev_instructions; period = 97; lbr = true; precise = true }
  in
  let o = Machine.run ~sampling exe ~input:[||] in
  match o.Machine.profile with
  | None -> Alcotest.fail "no profile"
  | Some p ->
      Alcotest.(check bool) "samples taken" true (p.Machine.rp_samples > 50);
      Alcotest.(check bool) "branch records" true (Hashtbl.length p.Machine.rp_branches > 3);
      Alcotest.(check bool) "fallthrough traces" true (Hashtbl.length p.Machine.rp_traces > 0);
      (* LBR mode: no plain IP samples *)
      Alcotest.(check int) "no ip samples in lbr mode" 0 (Hashtbl.length p.Machine.rp_ips)

let test_sampling_non_lbr () =
  let exe =
    compile {| fn main() { var i = 0; while (i < 2000) { i = i + 1; } out i; return 0; } |}
  in
  let sampling =
    { Machine.event = Machine.Ev_cycles; period = 53; lbr = false; precise = false }
  in
  let o = Machine.run ~sampling exe ~input:[||] in
  match o.Machine.profile with
  | None -> Alcotest.fail "no profile"
  | Some p ->
      Alcotest.(check bool) "ip samples present" true (Hashtbl.length p.Machine.rp_ips > 0);
      Alcotest.(check int) "no branch records" 0 (Hashtbl.length p.Machine.rp_branches)

let test_heatmap_collection () =
  let exe =
    compile {| fn main() { var i = 0; while (i < 100) { i = i + 1; } out i; return 0; } |}
  in
  let o = Machine.run ~heatmap:true exe ~input:[||] in
  match o.Machine.heat with
  | Some h -> Alcotest.(check bool) "lines touched" true (Hashtbl.length h > 0)
  | None -> Alcotest.fail "no heat"

let test_fuel_exhaustion () =
  let exe = compile {| fn main() { var i = 1; while (i > 0) { i = i + 1; } return 0; } |} in
  Alcotest.check_raises "endless loop" (Machine.Sim_error "out of fuel") (fun () ->
      ignore (Machine.run ~fuel:10_000 exe ~input:[||]))

let test_deterministic () =
  let exe =
    compile
      {| fn main() { var i = 0; var s = 7; while (i < 3000) { s = s * 31 + i; i = i + 1; } out s; return 0; } |}
  in
  let a = Machine.run exe ~input:[||] in
  let b = Machine.run exe ~input:[||] in
  Alcotest.(check bool) "same cycles" true
    (Machine.cycles a.Machine.counters = Machine.cycles b.Machine.counters);
  Alcotest.(check bool) "same output" true (a.Machine.output = b.Machine.output)

let test_samples_file_roundtrip () =
  let exe =
    compile {| fn main() { var i = 0; while (i < 3000) { i = i + 1; } out i; return 0; } |}
  in
  let sampling =
    { Machine.event = Machine.Ev_cycles; period = 101; lbr = true; precise = true }
  in
  let o = Machine.run ~sampling exe ~input:[||] in
  let p = Option.get o.Machine.profile in
  let path = Filename.temp_file "bolt" ".bprf" in
  Bolt_profile.Samples.save path p;
  let p' = Bolt_profile.Samples.load path in
  Sys.remove path;
  Alcotest.(check int) "samples" p.Machine.rp_samples p'.Machine.rp_samples;
  Alcotest.(check int) "branches" (Hashtbl.length p.Machine.rp_branches)
    (Hashtbl.length p'.Machine.rp_branches);
  Alcotest.(check int) "traces" (Hashtbl.length p.Machine.rp_traces)
    (Hashtbl.length p'.Machine.rp_traces)

(* ---- load-time and fetch errors ---- *)

(* A bare executable: one text section per (address, code) pair,
   entered at the first one.  No symbols, so no frames to unwind. *)
let raw_exe texts =
  {
    (Bolt_obj.Objfile.empty Bolt_obj.Objfile.Executable) with
    entry = fst (List.hd texts);
    sections =
      List.map
        (fun (addr, code) ->
          {
            Bolt_obj.Types.sec_name = Printf.sprintf ".text.%x" addr;
            sec_kind = Bolt_obj.Types.Text;
            sec_addr = addr;
            sec_data = Bytes.of_string code;
            sec_size = String.length code;
          })
        texts;
  }

let enc insns =
  String.concat "" (List.map (fun i -> Bytes.to_string (Bolt_isa.Codec.encode i)) insns)

let run_raw code = Machine.run (raw_exe [ (Layout.text_base, code) ]) ~input:[||]

let test_misaligned_execution () =
  (* a 10-byte movabs, then a jump back into its second byte *)
  let code =
    enc
      [ Insn.Mov_ri (Bolt_isa.Reg.r0, Insn.Imm 7, Insn.I64); Insn.Jmp (Insn.Imm (-11), Insn.W8) ]
  in
  Alcotest.check_raises "mid-instruction target"
    (Machine.Sim_error "misaligned execution at 0x400001")
    (fun () -> ignore (run_raw code))

let test_jump_outside_text () =
  let code = enc [ Insn.Jmp (Insn.Imm 0x1000, Insn.W32) ] in
  Alcotest.check_raises "past the end of .text"
    (Machine.Sim_error "jump outside text: 0x401005")
    (fun () -> ignore (run_raw code))

let test_padding_tolerated () =
  (* jump over an undecodable byte; the load must accept it as padding *)
  let body = enc [ Insn.Mov_ri (Bolt_isa.Reg.r0, Insn.Imm 42, Insn.I32); Insn.Halt ] in
  let o = run_raw (enc [ Insn.Jmp (Insn.Imm 1, Insn.W8) ] ^ "\xff" ^ body ^ "\xff") in
  Alcotest.(check int) "runs past the padding" 42 o.Machine.exit_code;
  Alcotest.(check int) "three instructions" 3 o.Machine.counters.Machine.instructions;
  (* executing the padding byte itself is a misaligned fetch *)
  Alcotest.check_raises "into the padding"
    (Machine.Sim_error "misaligned execution at 0x400002")
    (fun () -> ignore (run_raw (enc [ Insn.Jmp (Insn.Imm 0, Insn.W8) ] ^ "\xff" ^ body)))

let test_two_text_sections () =
  (* call into a second text section and return; then jump into the
     gap between the two *)
  let far = Layout.bolt_text_base - (Layout.text_base + 5) in
  let callee = enc [ Insn.Mov_ri (Bolt_isa.Reg.r0, Insn.Imm 5, Insn.I32); Insn.Ret ] in
  let o =
    Machine.run ~input:[||]
      (raw_exe
         [
           (Layout.text_base, enc [ Insn.Call (Insn.Imm far); Insn.Halt ]);
           (Layout.bolt_text_base, callee);
         ])
  in
  Alcotest.(check int) "callee's result" 5 o.Machine.exit_code;
  Alcotest.(check int) "four instructions" 4 o.Machine.counters.Machine.instructions;
  Alcotest.check_raises "between the sections"
    (Machine.Sim_error "jump outside text: 0x410005")
    (fun () ->
      ignore
        (Machine.run ~input:[||]
           (raw_exe
              [
                (Layout.text_base, enc [ Insn.Jmp (Insn.Imm 0x10000, Insn.W32) ]);
                (Layout.bolt_text_base, callee);
              ])))

(* ---- golden digests: the simulator's observable behaviour, pinned ---- *)

module P = Bolt_pipeline.Pipeline

(* Everything a run reports, in a canonical order: all 17 counters, the
   exit code, the output tape, the uncaught flag, the raw profile
   (sample count and the sorted branch, trace and IP tables) and the
   sorted heat map. *)
let outcome_text (o : Machine.outcome) =
  let b = Buffer.create 4096 in
  let c = o.Machine.counters in
  List.iter (Printf.bprintf b "%d\n")
    [
      c.Machine.instructions; c.qcycles; c.branches; c.cond_branches;
      c.cond_taken; c.taken_branches; c.calls; c.branch_misses;
      c.l1i_accesses; c.l1i_misses; c.l1d_accesses; c.l1d_misses;
      c.l2_misses; c.llc_misses; c.itlb_misses; c.dtlb_misses; c.throws;
    ];
  Printf.bprintf b "exit %d uncaught %b\nout" o.Machine.exit_code
    o.Machine.uncaught_exception;
  List.iter (Printf.bprintf b " %d") o.Machine.output;
  let sorted tbl f = List.sort compare (Hashtbl.fold (fun k v acc -> f k v :: acc) tbl []) in
  (match o.Machine.profile with
  | None -> Buffer.add_string b "\nno profile"
  | Some p ->
      Printf.bprintf b "\nlbr %b samples %d" p.Machine.rp_lbr p.Machine.rp_samples;
      List.iter
        (fun (f, t, n, m) -> Printf.bprintf b "\nB %d %d %d %d" f t n m)
        (sorted p.Machine.rp_branches (fun (f, t) (n, m) -> (f, t, !n, !m)));
      List.iter
        (fun (f, t, n) -> Printf.bprintf b "\nT %d %d %d" f t n)
        (sorted p.Machine.rp_traces (fun (f, t) n -> (f, t, !n)));
      List.iter
        (fun (ip, n) -> Printf.bprintf b "\nI %d %d" ip n)
        (sorted p.Machine.rp_ips (fun ip n -> (ip, !n))));
  (match o.Machine.heat with
  | None -> Buffer.add_string b "\nno heat"
  | Some h ->
      List.iter
        (fun (l, n) -> Printf.bprintf b "\nH %d %d" l n)
        (sorted h (fun l n -> (l, n))));
  Buffer.contents b

let outcome_digest o = Test_iocore.md5 (outcome_text o)

(* The iocore fixture program (throw/catch unwinding, a switch jump
   table, globals) and its BOLTed output, run in every simulator mode:
   plain; LBR sampling on cycles (the pipeline default); non-LBR
   sampling on taken branches with skid; a heat-map run sampling LBR
   stacks on instructions with skid; and the BOLTed binary, its blocks
   and functions laid out anew, with heat map and LBR sampling.  The
   digests in test/fixtures/digests.txt were produced by the simulator
   before its hot path was made allocation-free; any change to a
   counter, the output, the raw profile or the heat map shows here. *)
let golden_sim_digests () =
  let build = P.compile [ ("m", Test_iocore.fixture_source) ] in
  let exe = build.P.exe in
  let input = Array.init 16 (fun i -> (i * 7) + 3) in
  let check key o =
    Alcotest.(check string) key (Test_iocore.digest_of key) (outcome_digest o)
  in
  let sampling event period lbr precise = { Machine.event; period; lbr; precise } in
  check "sim_plain" (Machine.run exe ~input);
  check "sim_lbr" (Machine.run ~sampling:P.default_sampling exe ~input);
  check "sim_skid"
    (Machine.run ~sampling:(sampling Machine.Ev_taken_branches 97 false false) exe ~input);
  check "sim_heat"
    (Machine.run ~heatmap:true
       ~sampling:(sampling Machine.Ev_instructions 1009 true false)
       exe ~input);
  let prof, _ = P.profile build ~input in
  let bolted, _ = P.bolt ~jobs:1 build prof in
  check "sim_bolted"
    (Machine.run ~heatmap:true ~sampling:P.default_sampling bolted.P.exe ~input)

(* ---- the block-cached run against the per-instruction oracle ---- *)

module Reg = Bolt_isa.Reg
module Cond = Bolt_isa.Cond

(* A random program is up to two text sections of items.  A branch
   names its target by item, resolved once the sizes are known, or by
   raw address, which may land inside an instruction, on padding or
   outside the text. *)
type target =
  | Item of int * int (* section, item; the item count is the section's end *)
  | Ahead of int (* bytes past the branch's end *)
  | Addr of int

type item =
  | Op of Insn.t
  | Br of (int -> Insn.t) * target (* a 32-bit-displacement branch *)
  | Addr_of of Reg.t * target (* load a target's address, for an indirect branch *)
  | Raw of string (* bytes, decodable or not *)
  | Skipped of string (* the same, behind a jump over them *)

(* Where the second section goes: apart, right after or before the
   first, or overlapping it from either side of the section order. *)
type placement = Apart | After | Before | Overlap | Overlap_first

type prog = {
  secs : item array list; (* the first is entered at its start *)
  second : placement;
  handler : (int * int * int) option; (* try-range start and end items, pad item *)
  fuel : int;
  sampling : Machine.sample_cfg option;
  heatmap : bool;
  input : int array;
}

let item_size = function
  | Op i -> Insn.size i
  | Br (mk, _) -> Insn.size (mk 0)
  | Addr_of (r, _) -> Insn.size (Insn.Lea (r, Insn.Imm 0))
  | Raw s -> String.length s
  | Skipped s -> Insn.size (Insn.Jmp (Insn.Imm 0, Insn.W32)) + String.length s

(* Section addresses and item offsets, then the encoded bytes. *)
let layout p =
  let offsets items =
    let o = Array.make (Array.length items + 1) 0 in
    Array.iteri (fun k it -> o.(k + 1) <- o.(k) + item_size it) items;
    o
  in
  let offs = List.map offsets p.secs in
  let size k = let o = List.nth offs k in o.(Array.length o - 1) in
  let a = Layout.text_base + 0x40 in
  let addrs =
    match (p.secs, p.second) with
    | [ _ ], _ -> [ a ]
    | _, Apart -> [ a; Layout.bolt_text_base ]
    | _, After -> [ a; a + size 0 ]
    | _, Before -> [ a; a - size 1 ]
    | _, (Overlap | Overlap_first) -> [ a; a + (size 0 / 2) ]
  in
  let addr_of ~from = function
    | Item (s, k) ->
        let o = List.nth offs s in
        List.nth addrs s + o.(min k (Array.length o - 1))
    | Ahead d -> from + d
    | Addr x -> x
  in
  let code =
    List.mapi
      (fun s items ->
        let base = List.nth addrs s and o = List.nth offs s in
        String.concat ""
          (Array.to_list
             (Array.mapi
                (fun k it ->
                  let enc i = Bytes.to_string (Bolt_isa.Codec.encode i) in
                  match it with
                  | Op i -> enc i
                  | Br (mk, t) ->
                      let from = base + o.(k + 1) in
                      enc (mk (addr_of ~from t - from))
                  | Addr_of (r, t) ->
                      enc (Insn.Lea (r, Insn.Imm (addr_of ~from:(base + o.(k + 1)) t)))
                  | Raw b -> b
                  | Skipped b -> enc (Insn.Jmp (Insn.Imm (String.length b), Insn.W32)) ^ b)
                items)))
      p.secs
  in
  (addrs, offs, code)

let prog_exe p =
  let addrs, offs, code = layout p in
  let texts = List.combine addrs code in
  let texts = if p.second = Overlap_first then List.rev texts else texts in
  let exe = { (raw_exe texts) with Bolt_obj.Objfile.entry = List.hd addrs } in
  match p.handler with
  | None -> exe
  | Some (lo, hi, pad) ->
      let start = List.hd addrs and o = List.hd offs in
      let size = o.(Array.length o - 1) in
      {
        exe with
        symbols =
          [
            {
              Bolt_obj.Types.sym_name = "f";
              sym_kind = Bolt_obj.Types.Func;
              sym_bind = Bolt_obj.Types.Global;
              sym_section = Printf.sprintf ".text.%x" start;
              sym_value = start;
              sym_size = size;
            };
          ];
        lsdas =
          [
            {
              Bolt_obj.Types.lsda_func = "f";
              lsda_fn_addr = start;
              lsda_entries =
                [
                  {
                    lsda_start = o.(lo);
                    lsda_len = o.(hi) - o.(lo);
                    lsda_pad = o.(pad);
                    lsda_action = 0;
                  };
                ];
            };
          ];
      }

let show_prog p =
  let addrs, _, code = layout p in
  let hex s =
    String.to_seq s |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c)) |> List.of_seq
    |> String.concat ""
  in
  Printf.sprintf "fuel %d heat %b sampling %s handler %s input [%s]\n%s" p.fuel p.heatmap
    (match p.sampling with
    | None -> "none"
    | Some s ->
        Printf.sprintf "%s/%d lbr %b precise %b"
          (match s.Machine.event with
          | Machine.Ev_cycles -> "cycles"
          | Ev_instructions -> "insns"
          | Ev_taken_branches -> "taken")
          s.period s.lbr s.precise)
    (match p.handler with None -> "none" | Some (a, b, c) -> Printf.sprintf "%d-%d->%d" a b c)
    (String.concat ";" (Array.to_list (Array.map string_of_int p.input)))
    (String.concat "\n" (List.map2 (fun a c -> Printf.sprintf "%#x: %s" a (hex c)) addrs code))

let gen_prog =
  let open QCheck.Gen in
  (* r12 and r13 count loop trips up from 0, so loops end however
     they nest; nothing else writes them, fp or sp *)
  let reg = map Reg.of_int (int_range 0 11) in
  let counters = [ Reg.r12; Reg.r13 ] in
  let cond = map Cond.of_int (int_range 0 5) in
  let alu = oneofl Insn.[ Add; Sub; Mul; Div; Mod; And; Or; Xor; Shl; Shr; Cmp; Test ] in
  let base = frequency [ (3, return Reg.sp); (1, reg) ] in
  let disp = oneof [ map (fun w -> 8 * w) (int_range (-6) 6); int_range (-20) 20 ] in
  (* data words on one page, across a page boundary, and a line apart *)
  let data =
    map (fun k -> Layout.data_base + k) (oneof [ int_range 0 200; int_range 4060 4130 ])
  in
  let op =
    frequency
      [
        (3, map2 (fun r v -> Insn.Mov_ri (r, Insn.Imm v, Insn.I32)) reg (int_range (-40) 40));
        (1, map2 (fun r v -> Insn.Mov_ri (r, Insn.Imm v, Insn.I64)) reg int);
        (2, map2 (fun d s -> Insn.Mov_rr (d, s)) reg reg);
        (3, map3 (fun op d s -> Insn.Alu_rr (op, d, s)) alu reg reg);
        (3, map3 (fun op d v -> Insn.Alu_ri (op, d, Insn.Imm v)) alu reg (int_range (-70) 70));
        (4, map3 (fun d b o -> Insn.Load (d, b, o)) reg base disp);
        (4, map3 (fun b o s -> Insn.Store (b, o, s)) base disp reg);
        (2, map2 (fun d a -> Insn.Load_abs (d, Insn.Imm a)) reg data);
        (2, map2 (fun a s -> Insn.Store_abs (Insn.Imm a, s)) data reg);
        (2, map (fun r -> Insn.Push r) reg);
        (2, map (fun r -> Insn.Pop r) reg);
        (1, map2 (fun r a -> Insn.Lea (r, Insn.Imm a)) reg data);
        (1, map2 (fun r d -> Insn.Lea_rel (r, Insn.Imm d)) reg (int_range (-64) 64));
        (1, map2 (fun c r -> Insn.Setcc (c, r)) cond reg);
        (1, map (fun r -> Insn.In_ r) reg);
        (1, map (fun r -> Insn.Out r) reg);
        (2, map (fun k -> Insn.Nop k) (int_range 1 15));
      ]
  in
  let jmp d = Insn.Jmp (Insn.Imm d, Insn.W32) in
  let jcc c d = Insn.Jcc (c, Insn.Imm d, Insn.W32) in
  let call d = Insn.Call (Insn.Imm d) in
  let padding = oneofl [ "\xff"; "\x00"; "\x03\x01"; "\xff\xff\xff" ] in
  (* section [s] of [nsecs]: [n] generated items, most of them plain *)
  let section nsecs s n =
    (* an item past the group at [pos], here or in a later section:
       only loops go back *)
    let forward pos =
      map2
        (fun s' k -> if s' = s then Item (s, pos + 3 + k) else Item (s', k))
        (int_range s (nsecs - 1)) (int_range 0 8)
    in
    (* on, into or past an instruction, or out of the text *)
    let wild =
      frequency [ (4, map (fun d -> Ahead d) (int_range (-4) 48)); (1, return (Addr 0x10)) ]
    in
    let item pos =
      frequency
        [
          (160, map (fun i -> [ Op i ]) op);
          (1, return [ Op Insn.Halt ]);
          (1, return [ Op Insn.Throw ]);
          (1, oneofl [ [ Op Insn.Ret ]; [ Op Insn.Repz_ret ] ]);
          (6, map (fun t -> [ Br (jmp, t) ]) (forward pos));
          (10, map2 (fun c t -> [ Br (jcc c, t) ]) cond (forward pos));
          (4, map (fun t -> [ Br (call, t) ]) (forward pos));
          (1, map (fun t -> [ Br (jmp, t) ]) wild);
          ( 12,
            map3
              (fun r trips back ->
                [
                  Op (Insn.Alu_ri (Insn.Add, r, Insn.Imm 1));
                  Op (Insn.Alu_ri (Insn.Cmp, r, Insn.Imm trips));
                  Br (jcc Cond.Lt, Item (s, back));
                ])
              (oneofl counters) (int_range 0 12) (int_range 0 pos) );
          ( 2,
            map3
              (fun r t call_it ->
                [ Addr_of (r, t); Op (if call_it then Insn.Call_ind r else Insn.Jmp_ind r) ])
              reg (forward pos) bool );
          ( 1,
            map2
              (fun a call_it ->
                let slot = Insn.Imm a in
                [ Op (if call_it then Insn.Call_mem slot else Insn.Jmp_mem slot) ])
              data bool );
          (* padding, jumped over or (rarely) run into *)
          (4, map (fun b -> [ Skipped b ]) padding);
          (1, map (fun b -> [ Raw b ]) padding);
        ]
    in
    let rec go k acc =
      if k >= n then return (List.rev acc)
      else item (List.length acc) >>= fun is -> go (k + 1) (List.rev_append is acc)
    in
    go 0 [] >>= fun items ->
    (* a section may run off its end, or end in an instruction its end
       cuts short, which the load rejects *)
    frequency [ (30, return [ Op Insn.Halt ]); (8, return []); (1, return [ Raw "\x09\x00" ]) ]
    >|= fun tail ->
    Array.of_list (items @ tail)
  in
  int_range 1 2 >>= fun nsecs ->
  list_repeat nsecs (int_range 3 80) >>= fun lens ->
  flatten_l (List.mapi (fun s n -> section nsecs s n) lens) >>= fun secs ->
  oneofl [ Apart; After; Before; Overlap; Overlap_first ] >>= fun second ->
  let n0 = Array.length (List.hd secs) in
  (* a landing pad past its try range, so a caught throw runs on *)
  opt (pair (int_range 0 (n0 - 1)) (int_range 0 (n0 - 1))) >>= fun h ->
  (match h with
  | None -> return None
  | Some (a, b) ->
      let lo = min a b and hi = max a b in
      map (fun pad -> Some (lo, hi, pad)) (int_range hi (n0 - 1)))
  >>= fun handler ->
  frequency [ (4, return 5000); (1, int_range 0 300) ] >>= fun fuel ->
  opt
    (map2
       (fun (event, period) (lbr, precise) -> { Machine.event; period; lbr; precise })
       (pair
          (oneofl Machine.[ Ev_cycles; Ev_instructions; Ev_taken_branches ])
          (int_range 1 40))
       (pair bool bool))
  >>= fun sampling ->
  bool >>= fun heatmap ->
  array_size (int_range 0 4) (int_range (-5) 5) >|= fun input ->
  { secs; second; handler; fuel; sampling; heatmap; input }

(* Everything a run leaves: the outcome, the raw profile's tables in
   the order they iterate (as [Samples.save] and [Perf2bolt] read
   them), every memory page, or the exception it raised (from the load
   or the run). *)
let observe run p =
  match run p with
  | (o : Machine.outcome) ->
      let in_order tbl f = Hashtbl.fold (fun k v acc -> f k v :: acc) tbl [] in
      let order =
        Option.map
          (fun (r : Machine.raw_profile) ->
            ( in_order r.rp_branches (fun k (n, m) -> (k, !n, !m)),
              in_order r.rp_traces (fun k n -> (k, !n)),
              in_order r.rp_ips (fun k n -> (k, !n)) ))
          o.profile
      in
      let pages =
        Hashtbl.fold (fun k b acc -> (k, Bytes.to_string b) :: acc) o.final_mem.Memory.pages []
      in
      Ok (outcome_text o, order, List.sort compare pages)
  | exception e -> Error (Printexc.to_string e)

let oracle_prop =
  QCheck.Test.make ~name:"block-cached run == per-instruction oracle" ~count:2000
    (QCheck.make ~print:show_prog gen_prog)
    (fun p ->
      let exe = prog_exe p in
      let run f p =
        f ?config:None ?sampling:p.sampling ?heatmap:(Some p.heatmap) ?fuel:(Some p.fuel) exe
          ~input:p.input
      in
      observe (run Machine.run) p = observe (run Oracle.Machine.run) p)

let suite =
  [
    Alcotest.test_case "golden digests" `Quick golden_sim_digests;
    Alcotest.test_case "memory-aligned" `Quick test_memory_aligned;
    Alcotest.test_case "memory-cross-page" `Quick test_memory_unaligned_cross_page;
    QCheck_alcotest.to_alcotest memory_prop;
    Alcotest.test_case "memory-load-bytes-pages" `Quick test_load_bytes_pages;
    QCheck_alcotest.to_alcotest memo_collision_prop;
    Alcotest.test_case "cache-basic" `Quick test_cache_basic;
    Alcotest.test_case "cache-lru" `Quick test_cache_lru;
    Alcotest.test_case "cache-power-of-two" `Quick test_cache_power_of_two;
    QCheck_alcotest.to_alcotest cache_oracle_prop;
    Alcotest.test_case "bpred-direction" `Quick test_bpred_direction;
    Alcotest.test_case "bpred-ras" `Quick test_bpred_ras;
    Alcotest.test_case "btb-indirect" `Quick test_btb_indirect;
    Alcotest.test_case "counters-sane" `Quick test_counters_sane;
    Alcotest.test_case "sampling-lbr" `Quick test_sampling_aggregates;
    Alcotest.test_case "sampling-non-lbr" `Quick test_sampling_non_lbr;
    Alcotest.test_case "heatmap" `Quick test_heatmap_collection;
    Alcotest.test_case "fuel" `Quick test_fuel_exhaustion;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "samples-roundtrip" `Quick test_samples_file_roundtrip;
    Alcotest.test_case "misaligned-execution" `Quick test_misaligned_execution;
    Alcotest.test_case "jump-outside-text" `Quick test_jump_outside_text;
    Alcotest.test_case "padding-tolerated" `Quick test_padding_tolerated;
    Alcotest.test_case "two-text-sections" `Quick test_two_text_sections;
    QCheck_alcotest.to_alcotest oracle_prop;
  ]
