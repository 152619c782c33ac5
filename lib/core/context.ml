(* The binary context: the input executable, its parsed metadata, and the
   set of binary functions under rewriting. *)

open Bolt_obj

module Names = Hashtbl.Make (String)

(* A PLT stub: the GOT slot its indirect jump reads, and the function
   that slot points at when it resolves to one. *)
type stub = { slot : int; target : string option }

type t = {
  exe : Objfile.t;
  meta : Objfile.Index.t; (* [exe]'s FDEs, line tables and LSDAs by start *)
  opts : Opts.t;
  mutable funcs : Bfunc.t array;
      (* the discovered functions in address order: a function's index is
         its id ([Bfunc.fb_id]); both set by [set_funcs] *)
  mutable ids : int Names.t; (* function name -> id *)
  text : Types.section;
  plt : Types.section option;
  rodata : Types.section option;
  got : Types.section option;
  relocations_mode : bool;
  syms : Symtab.t; (* [exe]'s functions by address *)
  stubs : (string, stub) Hashtbl.t; (* PLT stub symbol -> its slot and target *)
  mutable func_layout : (int list * int list) option; (* hot, cold order by id *)
  mutable profile : Profile_view.t option;
      (* the profile as match-profile resolved it; [None] before it runs *)
  mutable log : string list; (* pass log, newest first *)
  diag : Diag.t; (* structured diagnostics for the whole run *)
  obs : Bolt_obs.Obs.t; (* trace spans + metrics registry for the run *)
  stats : Bolt_obs.Metrics.t;
      (* always-on run statistics the final report is built from; the
         (possibly disabled) [obs] registry mirrors it for manifests *)
  m : Mutex.t; (* guards [log] under parallel passes *)
}

let logf ctx fmt =
  Fmt.kstr (fun s -> Mutex.protect ctx.m (fun () -> ctx.log <- s :: ctx.log)) fmt

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
  let ctx =
    {
      exe;
      meta = Objfile.Index.create exe;
      opts;
      funcs = [||];
      ids = Names.create 1;
      text;
      plt;
      rodata;
      got;
      relocations_mode;
      syms = Symtab.create exe.symbols;
      stubs = Hashtbl.create 16;
      func_layout = None;
      profile = None;
      log = [];
      diag = Diag.create ();
      obs;
      stats = Bolt_obs.Metrics.create ();
      m = Mutex.create ();
    }
  in
  (* the one scan of the PLT: each stub's GOT slot, resolved to the
     function it points at *)
  (match plt with
  | Some p ->
      List.iter
        (fun (s : Types.symbol) ->
          if s.sym_section = ".plt" && s.sym_kind = Types.Func then
            match Bolt_isa.Codec.decode p.sec_data (s.sym_value - p.sec_addr) with
            | Bolt_isa.Insn.Jmp_mem (Bolt_isa.Insn.Imm slot), _ ->
                let target =
                  match section_value ctx ctx.got slot with
                  | Some target -> (
                      match Symtab.at ctx.syms target with
                      | Some f -> Some f.Types.sym_name
                      | None ->
                          Diag.warnf ctx.diag ~stage:"plt-scan" ~func:s.sym_name
                            "GOT slot %#x does not point at a function entry" slot;
                          None)
                  | None ->
                      Diag.warnf ctx.diag ~stage:"plt-scan" ~func:s.sym_name
                        "GOT slot %#x out of range" slot;
                      None
                in
                Hashtbl.replace ctx.stubs s.sym_name { slot; target }
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

(* The function a PLT stub jumps to, when its GOT slot resolved. *)
let plt_target ctx stub =
  match Hashtbl.find_opt ctx.stubs stub with
  | Some { target; _ } -> target
  | None -> None

(* Install the discovered functions, in address order: each one's index
   becomes its id, and its name maps to it. *)
let set_funcs ctx (funcs : Bfunc.t array) =
  let ids = Names.create (2 * Array.length funcs + 1) in
  Array.iteri
    (fun i (f : Bfunc.t) ->
      f.fb_id <- i;
      Names.replace ids f.fb_name i)
    funcs;
  ctx.funcs <- funcs;
  ctx.ids <- ids

(* The id of the function named [name]; -1 for a name that is not one. *)
let id ctx name = Option.value ~default:(-1) (Names.find_opt ctx.ids name)

let func ctx name = Option.map (Array.get ctx.funcs) (Names.find_opt ctx.ids name)
let iter_funcs ctx g = Array.iter g ctx.funcs
let all_funcs ctx = Array.to_list ctx.funcs

let simple_funcs ctx =
  List.filter
    (fun (f : Bfunc.t) -> f.simple && f.folded_into = None)
    (all_funcs ctx)

(* ---- per-domain shards ----

   A parallel pass hands each worker domain a private shard; workers
   record metrics, diagnostics and quarantine verdicts there without
   synchronization.  At pool join the shards are folded back into the
   context in stable function order, so the visible result is
   independent of how items were scheduled across domains. *)

type shard = {
  sh_stats : Bolt_obs.Metrics.t; (* merged into the pass registry at join *)
  mutable sh_verdicts : (Bfunc.t * string) list; (* demoted function, reason *)
  mutable sh_diags : (Diag.severity * string * string option * string) list;
      (* severity, stage, func, message *)
  mutable sh_times : float list; (* per-function wall seconds, when traced *)
}

let new_shard () =
  {
    sh_stats = Bolt_obs.Metrics.create ();
    sh_verdicts = [];
    sh_diags = [];
    sh_times = [];
  }

let sh_incr sh ?by name = Bolt_obs.Metrics.incr sh.sh_stats ?by name

let sh_diag sh severity ~stage ?func fmt =
  Fmt.kstr (fun msg -> sh.sh_diags <- (severity, stage, func, msg) :: sh.sh_diags) fmt

(* Replay shard diagnostics into [ctx.diag], sorted by function id
   (then stage/message; a record naming no function last) so the record
   order matches what a sequential run in address order would have
   produced. *)
let apply_shard_diags ctx shards =
  if List.exists (fun sh -> sh.sh_diags <> []) shards then
    let rank n = match id ctx n with -1 -> max_int | i -> i in
    shards
    |> List.concat_map (fun sh -> List.rev sh.sh_diags)
    |> List.map (fun ((_sev, stage, func, msg) as d) ->
           ((Option.fold ~none:max_int ~some:rank func, stage, msg), d))
    |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)
    |> List.iter (fun (_, (sev, stage, func, msg)) ->
           Diag.add ctx.diag sev ~stage ?func msg)
