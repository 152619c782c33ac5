(* ICF against its oracle.  [Icf.run] hashes every simple function into a
   shape bucket and compares [normalize] keys only within shared buckets;
   [Oracle.icf] is the all-functions loop it replaced.  Both must fold the
   same functions into the same survivors, count the same bytes and leave
   the same retargeted bodies, and equal keys must imply equal shapes. *)

open Bolt_core
module Gen = Bolt_workloads.Gen
module Driver = Bolt_minic.Driver

(* A small hhvm_like program: switch-heavy, with plain and jump-table
   duplicate families of [copies] functions each. *)
let small_hhvm ?(copies = 3) seed =
  {
    Bolt_workloads.Workloads.hhvm_like with
    Gen.seed;
    funcs = 160;
    modules = 4;
    iterations = 10;
    dup_plain_families = 3;
    dup_plain_copies = copies;
    dup_switch_families = 3;
    dup_switch_copies = copies;
    leaf_helpers = 8;
    asm_dispatchers = 1;
    top_funcs = 4;
  }

(* [linker_icf] builds the way [Experiments.icf_experiment] does: BOLT's
   ICF then folds what the linker's could not. *)
let compile ~linker_icf p =
  let w = Gen.gen p in
  (Driver.compile
     ~options:{ Driver.default_options with linker_icf }
     ~externals:w.Gen.externals ~extra_objs:w.Gen.extra_objs w.Gen.sources)
    .Driver.exe

let build exe = Test_bolt_core.build_ctx exe

let simple ctx = List.filter (fun fb -> fb.Bfunc.simple) (Context.all_funcs ctx)

let folds ctx =
  List.map (fun fb -> (fb.Bfunc.fb_name, fb.Bfunc.folded_into)) (Context.all_funcs ctx)

(* Bodies after retargeting, labels and callees as [normalize] sees them. *)
let bodies ctx = List.map (Icf.normalize Fun.id) (simple ctx)

(* Two invocations, like the pipeline's icf and icf-2: the second sees the
   first's folds. *)
let agrees_with_oracle exe =
  let a = build exe and b = build exe in
  List.for_all
    (fun _ ->
      let r = Icf.run a in
      let folded, bytes = Oracle.icf b in
      r.Icf.folded = folded && r.Icf.bytes_saved = bytes && folds a = folds b)
    [ 1; 2 ]
  && bodies a = bodies b

(* Every pair of simple functions with equal keys has equal shapes, under
   the identity and under the fold map a full ICF run produces. *)
let keys_imply_shapes exe =
  let folded = build exe in
  ignore (Oracle.icf folded);
  let rec canon s =
    match Context.func folded s with
    | Some { Bfunc.folded_into = Some s'; _ } -> canon s'
    | _ -> s
  in
  let ctx = build exe in
  List.for_all
    (fun canon ->
      let shape_of_key = Hashtbl.create 256 in
      List.for_all
        (fun fb ->
          let key = Icf.normalize canon fb and h = Icf.shape fb in
          match Hashtbl.find_opt shape_of_key key with
          | Some h' -> h = h'
          | None ->
              Hashtbl.add shape_of_key key h;
              true)
        (simple ctx))
    [ Fun.id; canon ]

let program =
  QCheck.make
    ~print:(fun (seed, linker_icf, copies) ->
      Printf.sprintf "hhvm_like seed %d, linker_icf %b, %d copies" seed linker_icf
        copies)
    QCheck.Gen.(triple (int_range 0 10_000) bool (int_range 2 4))

let exe_of (seed, linker_icf, copies) = compile ~linker_icf (small_hhvm ~copies seed)

let prop_oracle =
  QCheck.Test.make ~name:"icf == all-functions oracle" ~count:10 program
    (fun p -> agrees_with_oracle (exe_of p))

let prop_shapes =
  QCheck.Test.make ~name:"equal keys imply equal shapes" ~count:10 program
    (fun p -> keys_imply_shapes (exe_of p))

(* The icf_experiment build at test size: jump-table and plain twin
   families that survive linker ICF. *)
let test_icf_experiment_workload () =
  let exe = compile ~linker_icf:true (small_hhvm 11) in
  let ctx = build exe in
  let r = Icf.run ctx in
  Alcotest.(check bool) "folds something" true (r.Icf.folded > 0);
  Alcotest.(check bool) "candidates bound the folds" true
    (r.Icf.candidates > r.Icf.folded && r.Icf.candidates < List.length (simple ctx));
  Alcotest.(check bool) "agrees with the oracle" true (agrees_with_oracle exe);
  Alcotest.(check bool) "keys imply shapes" true (keys_imply_shapes exe)

(* Callers of twins fold only once the twins have.  The callers come
   first in address order, so round 1 keys them before their callees
   fold; it folds the leaves and the switch twins (tables at different
   addresses), round 2 the callers, and round 3 finds nothing. *)
let multi_round_src =
  {| fn mid1(x) { return leaf1(x) + leaf1(x + 1) * 5; }
     fn mid2(x) { return leaf2(x) + leaf2(x + 1) * 5; }
     fn leaf1(x) { return x * 7 + 3; }
     fn leaf2(x) { return x * 7 + 3; }
     fn sw1(x) {
       switch (x % 5) {
         case 0: { return 10; } case 1: { return 21; } case 2: { return 32; }
         case 3: { return 43; } default: { return 0; }
       }
     }
     fn sw2(x) {
       switch (x % 5) {
         case 0: { return 10; } case 1: { return 21; } case 2: { return 32; }
         case 3: { return 43; } default: { return 0; }
       }
     }
     fn main() { out mid1(1) + mid2(2) + sw1(3) + sw2(4); return 0; } |}

let test_multi_round () =
  let options =
    {
      Driver.default_options with
      inline_decisions =
        { Bolt_minic.Inline.default_decisions with small_threshold = 0; hint_threshold = 0 };
    }
  in
  let exe = (Driver.compile ~options [ ("m", multi_round_src) ]).Driver.exe in
  let ctx = build exe in
  let r = Icf.run ctx in
  Alcotest.(check int) "folded" 3 r.Icf.folded;
  Alcotest.(check int) "rounds" 3 r.Icf.rounds;
  Alcotest.(check int) "candidates" 6 r.Icf.candidates;
  let func n = Option.get (Context.func ctx n) in
  Alcotest.(check int) "sw1 has a jump table" 1 (Array.length (func "sw1").Bfunc.jts);
  let into n = (func n).Bfunc.folded_into in
  Alcotest.(check (option string)) "leaf2" (Some "leaf1") (into "leaf2");
  Alcotest.(check (option string)) "mid2" (Some "mid1") (into "mid2");
  Alcotest.(check (option string)) "sw2" (Some "sw1") (into "sw2");
  Alcotest.(check bool) "agrees with the oracle" true (agrees_with_oracle exe);
  (* a second invocation folds nothing and retargets nothing *)
  let before = bodies ctx in
  let r2 = Icf.run ctx in
  Alcotest.(check int) "icf-2 folds nothing" 0 r2.Icf.folded;
  Alcotest.(check bool) "bodies unchanged" true (before = bodies ctx)

let rand = Random.State.make [| 1807 |]

let suite =
  [
    Alcotest.test_case "multi-round folds" `Quick test_multi_round;
    Alcotest.test_case "icf_experiment workload" `Quick test_icf_experiment_workload;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand prop_oracle;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand prop_shapes;
  ]
