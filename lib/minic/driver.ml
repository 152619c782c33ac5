(* Compiler driver: sources to linked executables, with the same knobs the
   paper's evaluation turns — optimization level, instrumentation-based
   PGO, LTO, function sections, PIC jump tables and link-time function
   ordering (the HFSort baseline). *)

type pgo_mode =
  | No_pgo
  | Instrument (* build with edge counters; produces a mapping *)
  | Apply of (string * int * int * int) list (* edge profile to apply *)

type options = {
  opt_level : int;
  lto : bool;
  pgo : pgo_mode;
  function_sections : bool;
  pic_jump_tables : bool;
  align_loops : bool;
  plt_calls : bool;
  emit_relocs : bool;
  linker_icf : bool;
  func_order : string list option; (* link-time function order (HFSort) *)
  inline_decisions : Inline.decision_input;
}

let default_options =
  {
    opt_level = 2;
    lto = false;
    pgo = No_pgo;
    function_sections = true;
    pic_jump_tables = true;
    align_loops = true;
    plt_calls = true;
    emit_relocs = true;
    linker_icf = false;
    func_order = None;
    inline_decisions = Inline.default_decisions;
  }

type result = {
  exe : Bolt_obj.Objfile.t;
  objs : Bolt_obj.Objfile.t list;
  mapping : Pgo.mapping option; (* present for instrumented builds *)
  link_stats : Bolt_linker.Linker.stats;
  ir : Ir.program;
}

(* Front end + middle end shared by every build mode. *)
let to_ir ?(externals = []) (sources : (string * string) list) =
  let modules =
    List.map (fun (name, src) -> Parser.parse_module ~name ~file:(name ^ ".mc") src) sources
  in
  let genv = Sema.check ~externals modules in
  (genv, Lower.lower_program genv modules)

(* [extra_objs] are pre-assembled objects (e.g. hand-written assembly
   units, which typically lack frame information) linked into the
   executable; [externals] declares the functions they define. *)
let compile ?(options = default_options) ?(externals = []) ?(extra_objs = [])
    (sources : (string * string) list) : result =
  let _genv, prog = to_ir ~externals sources in
  if options.opt_level >= 1 then Irpass.cleanup prog;
  let mapping =
    match options.pgo with
    | No_pgo -> None
    | Instrument -> Some (Pgo.instrument prog)
    | Apply prof ->
        Pgo.annotate prog prof;
        None
  in
  if options.opt_level >= 2 then
    ignore
      (Inline.run ~decisions:options.inline_decisions ~cross_module:options.lto prog);
  let cg_opts =
    {
      Codegen.opt_level = options.opt_level;
      lto = options.lto;
      function_sections = options.function_sections;
      pic_jump_tables = options.pic_jump_tables;
      align_loops = options.align_loops;
      plt_calls = options.plt_calls;
    }
  in
  let extra_bss =
    match mapping with
    | Some m -> [ (Pgo.counters_symbol, 8 * max 1 (Pgo.num_counters m), true) ]
    | None -> []
  in
  let units = Codegen.gen_program ~opts:cg_opts ~extra_bss prog in
  let objs = List.map (fun (_, u) -> Bolt_asm.Asm.assemble u) units @ extra_objs in
  let link_opts =
    {
      Bolt_linker.Linker.emit_relocs = options.emit_relocs;
      icf = options.linker_icf;
      func_order = options.func_order;
      entry = "main";
    }
  in
  let exe, link_stats = Bolt_linker.Linker.link ~options:link_opts objs in
  { exe; objs; mapping; link_stats; ir = prog }
