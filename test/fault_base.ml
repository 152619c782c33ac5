(* The fault-injection suite's base workload: a small generated
   service (28 functions in 2 modules, non-LTO, so its cross-module calls
   go through PLT stubs), compiled with or without relocations and
   profiled with LBR.  The iocore suite pins the rewrite of its
   relocations-mode build. *)

module Machine = Bolt_sim.Machine
module Objfile = Bolt_obj.Objfile
module Fdata = Bolt_profile.Fdata
module Gen = Bolt_workloads.Gen

let small_params seed =
  {
    Gen.default with
    Gen.seed;
    funcs = 28;
    modules = 2;
    layers = 3;
    iterations = 150;
    switch_per_mille = 300;
    indirect_per_mille = 150;
    eh_per_mille = 120;
    dup_plain_families = 1;
    dup_switch_families = 1;
    asm_dispatchers = 1;
    leaf_helpers = 4;
    top_funcs = 3;
  }

type base = {
  exe : Objfile.t;
  input : int array;
  prof : Fdata.t;
}

let build_base ~emit_relocs seed =
  let w = Gen.gen (small_params seed) in
  let cc = { Bolt_minic.Driver.default_options with emit_relocs } in
  let r =
    Bolt_minic.Driver.compile ~options:cc ~externals:w.Gen.externals
      ~extra_objs:w.Gen.extra_objs w.Gen.sources
  in
  let sampling =
    { Machine.event = Machine.Ev_cycles; period = 251; lbr = true; precise = true }
  in
  let o = Machine.run ~sampling r.exe ~input:w.Gen.input in
  let prof =
    match o.Machine.profile with
    | Some raw -> Bolt_profile.Perf2bolt.convert r.exe raw
    | None -> Fdata.empty
  in
  { exe = r.exe; input = w.Gen.input; prof }

let base_rel = lazy (build_base ~emit_relocs:true 3)
let base_inplace = lazy (build_base ~emit_relocs:false 4)
