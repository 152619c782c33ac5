(* The binary context: the input executable, its parsed metadata, and the
   set of binary functions under rewriting. *)

open Bolt_obj

module Names = Hashtbl.Make (String)

type t = {
  exe : Objfile.t;
  meta : Objfile.Index.t; (* [exe]'s FDEs, line tables and LSDAs by start *)
  opts : Opts.t;
  funcs : (string, Bfunc.t) Hashtbl.t;
  mutable order : string list; (* functions by original address *)
  mutable rank : int Names.t;
      (* name -> index in [order]; both set by [set_order] *)
  text : Types.section;
  plt : Types.section option;
  rodata : Types.section option;
  got : Types.section option;
  relocations_mode : bool;
  syms : Symtab.t; (* [exe]'s functions by address *)
  plt_target : (string, string) Hashtbl.t; (* stub symbol -> target function *)
  mutable func_layout : (string list * string list) option; (* hot, cold order *)
  mutable profile : Profile_view.t option;
      (* the profile as match-profile resolved it; [None] before it runs *)
  mutable log : string list; (* pass log, newest first *)
  diag : Diag.t; (* structured diagnostics for the whole run *)
  obs : Bolt_obs.Obs.t; (* trace spans + metrics registry for the run *)
  stats : Bolt_obs.Metrics.t;
      (* always-on run statistics the final report is built from; the
         (possibly disabled) [obs] registry mirrors it for manifests *)
  touched : (string, unit) Hashtbl.t; (* functions modified by the current pass *)
  m : Mutex.t; (* guards [log] and [touched] under parallel passes *)
}

let logf ctx fmt =
  Fmt.kstr (fun s -> Mutex.protect ctx.m (fun () -> ctx.log <- s :: ctx.log)) fmt

(* Mark [name] as modified by the pass currently running; the per-pass
   span reads (and resets) the set to report functions-touched counts.
   Safe to call from worker domains, but parallel passes should prefer
   [sh_touch] on their shard — uncontended, merged at join. *)
let touch ctx name =
  Mutex.protect ctx.m (fun () -> Hashtbl.replace ctx.touched name ())

exception Bolt_error of string

let err fmt = Fmt.kstr (fun s -> raise (Bolt_error s)) fmt

let section_value _ctx (sec : Types.section option) addr =
  match sec with
  | Some s when addr >= s.sec_addr && addr + 8 <= s.sec_addr + s.sec_size ->
      (* read in place; a Bss section has no bytes behind its size *)
      let off = addr - s.sec_addr in
      if off + 8 > Bytes.length s.sec_data then raise (Buf.Corrupt "truncated input");
      Some (Int64.to_int (Bytes.get_int64_le s.sec_data off))
  | _ -> None

let in_section (sec : Types.section option) addr =
  match sec with
  | Some s -> addr >= s.sec_addr && addr < s.sec_addr + s.sec_size
  | None -> false

let create ~(opts : Opts.t) ?obs (exe : Objfile.t) : t =
  let obs =
    match obs with Some o -> o | None -> Bolt_obs.Obs.create ~name:"bolt" ()
  in
  let text =
    match Objfile.find_section exe ".text" with
    | Some s -> s
    | None -> err "no .text section"
  in
  let plt = Objfile.find_section exe ".plt" in
  let rodata = Objfile.find_section exe ".rodata" in
  let got = Objfile.find_section exe ".got" in
  let relocations_mode =
    match opts.use_relocations with
    | Some b -> b
    | None -> exe.relocs <> []
  in
  (* resolve PLT stubs through their GOT slots *)
  let plt_target = Hashtbl.create 16 in
  let ctx =
    {
      exe;
      meta = Objfile.Index.create exe;
      opts;
      funcs = Hashtbl.create 256;
      order = [];
      rank = Names.create 1;
      text;
      plt;
      rodata;
      got;
      relocations_mode;
      syms = Symtab.create exe.symbols;
      plt_target;
      func_layout = None;
      profile = None;
      log = [];
      diag = Diag.create ();
      obs;
      stats = Bolt_obs.Metrics.create ();
      touched = Hashtbl.create 64;
      m = Mutex.create ();
    }
  in
  (match plt with
  | Some p ->
      List.iter
        (fun (s : Types.symbol) ->
          if s.sym_section = ".plt" && s.sym_kind = Types.Func then
            match Bolt_isa.Codec.decode p.sec_data (s.sym_value - p.sec_addr) with
            | Bolt_isa.Insn.Jmp_mem (Bolt_isa.Insn.Imm slot), _ -> (
                match section_value ctx ctx.got slot with
                | Some target -> (
                    match Symtab.at ctx.syms target with
                    | Some f -> Hashtbl.replace plt_target s.sym_name f.Types.sym_name
                    | None ->
                        Diag.warnf ctx.diag ~stage:"plt-scan" ~func:s.sym_name
                          "GOT slot %#x does not point at a function entry" slot)
                | None ->
                    Diag.warnf ctx.diag ~stage:"plt-scan" ~func:s.sym_name
                      "GOT slot %#x out of range" slot)
            | _ ->
                Diag.warnf ctx.diag ~stage:"plt-scan" ~func:s.sym_name
                  "PLT stub is not a GOT-indirect jump; left unresolved"
            | exception exn ->
                Diag.warnf ctx.diag ~stage:"plt-scan" ~func:s.sym_name
                  "undecodable PLT stub (%s); left unresolved"
                  (Printexc.to_string exn))
        exe.symbols
  | None -> ());
  ctx

let func ctx name = Hashtbl.find_opt ctx.funcs name

let iter_funcs ctx g =
  List.iter (fun name -> g (Hashtbl.find ctx.funcs name)) ctx.order

let all_funcs ctx = List.map (fun name -> Hashtbl.find ctx.funcs name) ctx.order

let simple_funcs ctx =
  List.filter_map
    (fun name ->
      let f = Hashtbl.find ctx.funcs name in
      if f.Bfunc.simple && f.Bfunc.folded_into = None then Some f else None)
    ctx.order

(* Fix the function order, and the rank table [order_rank] reads. *)
let set_order ctx names =
  let tbl = Names.create 256 in
  List.iteri (fun i n -> Names.replace tbl n i) names;
  ctx.order <- names;
  ctx.rank <- tbl

(* Rank of a function name in the original address order; [max_int] for
   names outside it.  Used to fold per-domain results deterministically. *)
let order_rank ctx n =
  match Names.find ctx.rank n with i -> i | exception Not_found -> max_int

(* ---- per-domain shards ----

   A parallel pass hands each worker domain a private shard; workers
   record metrics, touched functions, diagnostics and quarantine verdicts
   there without synchronization.  At pool join the shards are folded
   back into the context in stable function order, so the visible result
   is independent of how items were scheduled across domains. *)

type shard = {
  sh_stats : Bolt_obs.Metrics.t; (* merged into the pass registry at join *)
  sh_touched : (string, unit) Hashtbl.t;
  mutable sh_verdicts : (Bfunc.t * string) list; (* demoted function, reason *)
  mutable sh_diags : (Diag.severity * string * string option * string) list;
      (* severity, stage, func, message *)
  mutable sh_times : float list; (* per-function wall seconds, when traced *)
}

let new_shard () =
  {
    sh_stats = Bolt_obs.Metrics.create ();
    sh_touched = Hashtbl.create 64;
    sh_verdicts = [];
    sh_diags = [];
    sh_times = [];
  }

let sh_touch sh (fb : Bfunc.t) = Hashtbl.replace sh.sh_touched fb.Bfunc.fb_name ()
let sh_incr sh ?by name = Bolt_obs.Metrics.incr sh.sh_stats ?by name

let sh_diag sh severity ~stage ?func fmt =
  Fmt.kstr (fun msg -> sh.sh_diags <- (severity, stage, func, msg) :: sh.sh_diags) fmt

(* Replay shard diagnostics into [ctx.diag], sorted by function rank
   (then stage/severity/message) so the record order matches what a
   sequential run in address order would have produced. *)
let apply_shard_diags ctx shards =
  if List.exists (fun sh -> sh.sh_diags <> []) shards then
    let rank = order_rank ctx in
    shards
    |> List.concat_map (fun sh -> List.rev sh.sh_diags)
    |> List.map (fun ((_sev, stage, func, msg) as d) ->
           ((Option.fold ~none:max_int ~some:rank func, stage, msg), d))
    |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)
    |> List.iter (fun (_, (sev, stage, func, msg)) ->
           Diag.add ctx.diag sev ~stage ?func msg)
