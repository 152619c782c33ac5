(* perf2bolt: convert raw simulator samples (absolute addresses) into the
   function-relative fdata profile, using the executable's function index
   ([Symtab.covering] names the function an address falls in).

   Mirrors the real tool: branch records whose endpoints fall outside any
   known function are dropped; fall-through ranges are only kept when both
   ends land in the same function.

   Output is canonical (deduplicated + sorted, via [Fdata.normalize]):
   distinct absolute address pairs can resolve to the same
   function-relative record, and one aggregated line per distinct record
   keeps shard files small and fleet merges cheap. *)

open Bolt_obj

let convert ?header (exe : Objfile.t) (raw : Bolt_sim.Machine.raw_profile) : Fdata.t =
  let funcs = Symtab.create exe.Objfile.symbols in
  let resolve addr =
    Option.map
      (fun (s : Types.symbol) -> (s.sym_name, addr - s.sym_value))
      (Symtab.covering funcs addr)
  in
  let c64 n = Int64.of_int (max 0 n) in
  let branches = ref [] in
  Hashtbl.iter
    (fun (f, t) (cnt, mis) ->
      match (resolve f, resolve t) with
      | Some (ff, fo), Some (tf, to_) ->
          branches :=
            {
              Fdata.br_from_func = ff;
              br_from_off = fo;
              br_to_func = tf;
              br_to_off = to_;
              br_count = c64 !cnt;
              br_mispreds = c64 !mis;
            }
            :: !branches
      | _ -> ())
    raw.rp_branches;
  let ranges = ref [] in
  Hashtbl.iter
    (fun (s, e) cnt ->
      match (resolve s, resolve e) with
      | Some (f1, o1), Some (f2, o2) when f1 = f2 && o2 >= o1 ->
          ranges :=
            { Fdata.rg_func = f1; rg_start = o1; rg_end = o2; rg_count = c64 !cnt }
            :: !ranges
      | _ -> ())
    raw.rp_traces;
  let samples = ref [] in
  Hashtbl.iter
    (fun ip cnt ->
      match resolve ip with
      | Some (f, o) ->
          samples := { Fdata.sm_func = f; sm_off = o; sm_count = c64 !cnt } :: !samples
      | None -> ())
    raw.rp_ips;
  Fdata.normalize
    {
      Fdata.lbr = raw.rp_lbr;
      header;
      branches = !branches;
      ranges = !ranges;
      samples = !samples;
      total_samples = 0L (* recomputed by normalize *);
      (* carry the profiled binary's fingerprints so the shard can be
         matched against a later revision once this one is stale *)
      fingerprints = exe.Objfile.fingerprints;
    }
