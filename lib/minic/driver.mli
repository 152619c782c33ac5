(** Compiler driver: MiniC sources to linked BELF executables, with the
    knobs the paper's evaluation turns. *)

(** Profile-guided-optimization mode of a build. *)
type pgo_mode =
  | No_pgo
  | Instrument  (** insert edge counters; the result carries a mapping *)
  | Apply of (string * int * int * int) list
      (** apply an edge profile: (function, src block, dst block, count) *)

type options = {
  opt_level : int;  (** 0, 1 or 2 *)
  lto : bool;  (** whole-program build: cross-module inlining, no PLT *)
  pgo : pgo_mode;
  function_sections : bool;
      (** one text section per function; required for link-time function
          reordering.  When false, intra-unit calls are resolved at
          assembly time and leave no relocations (§3.2's challenge). *)
  pic_jump_tables : bool;
      (** emit PIC jump tables, whose relocations the linker drops —
          BOLT must then rediscover them by pattern matching *)
  align_loops : bool;
  plt_calls : bool;  (** cross-module calls go through PLT stubs *)
  emit_relocs : bool;  (** keep relocations: enables BOLT's relocations mode *)
  linker_icf : bool;
  func_order : string list option;  (** link-time function order (HFSort) *)
  inline_decisions : Inline.decision_input;
}

val default_options : options

type result = {
  exe : Bolt_obj.Objfile.t;
  objs : Bolt_obj.Objfile.t list;  (** the relocatable inputs to the link *)
  mapping : Pgo.mapping option;  (** present for instrumented builds *)
  link_stats : Bolt_linker.Linker.stats;
  ir : Ir.program;  (** post-optimization IR, for inspection *)
}

(** Shared front end + middle end: parse, check, lower.  [externals]
    declares functions defined by hand-written assembly objects. *)
val to_ir :
  ?externals:(string * int) list ->
  (string * string) list ->
  Sema.genv * Ir.program

(** [compile ~options sources] builds [(module_name, source_text)] pairs
    into an executable.  [extra_objs] are pre-assembled objects linked in
    (e.g. assembly dispatchers); [externals] declares the functions they
    define, as (name, arity). *)
val compile :
  ?options:options ->
  ?externals:(string * int) list ->
  ?extra_objs:Bolt_obj.Objfile.t list ->
  (string * string) list ->
  result
