(* bdump: inspect BELF files — the objdump/readelf analog.

     bdump prog.x                     # sections + symbols summary
     bdump -d prog.x                  # disassemble all functions
     bdump -d --func main prog.x     # one function, with line info
     bdump --relocs --fdes prog.x    # relocation and frame records
     bdump --layout-score prog.x prog.fdata   # offline ExtTSP scores *)

open Cmdliner
open Bolt_obj

let dump_function exe meta (s : Types.symbol) =
  let sec =
    List.find
      (fun (sec : Types.section) ->
        s.sym_value >= sec.sec_addr && s.sym_value < sec.sec_addr + sec.sec_size)
      exe.Objfile.sections
  in
  Printf.printf "\n%08x <%s>:  (%d bytes, %s)\n" s.sym_value s.sym_name s.sym_size
    sec.sec_name;
  let dbg = Objfile.Index.dbg meta s.sym_value in
  let line_at off =
    match dbg with
    | None -> None
    | Some d ->
        List.fold_left
          (fun acc (o, f, l) -> if o <= off then Some (f, l) else acc)
          None
          (List.sort compare d.dbg_entries)
  in
  let pos = ref (s.sym_value - sec.sec_addr) in
  let stop = !pos + s.sym_size in
  let last_line = ref None in
  while !pos < stop do
    let off = !pos - (s.sym_value - sec.sec_addr) in
    match Bolt_isa.Codec.decode sec.sec_data !pos with
    | i, sz ->
        let loc = line_at off in
        let loc_str =
          if loc <> !last_line then (
            last_line := loc;
            match loc with
            | Some (f, l) -> Printf.sprintf "   # %s:%d" f l
            | None -> "")
          else ""
        in
        Printf.printf "  %6x:  %s%s\n" off (Bolt_isa.Insn.to_string i) loc_str;
        pos := !pos + sz
    | exception Bolt_isa.Codec.Decode_error _ ->
        Printf.printf "  %6x:  <bad byte %02x>\n" off
          (Char.code (Bytes.get sec.sec_data !pos));
        incr pos
  done

(* --manifest: inspect a telemetry run manifest instead of a BELF file —
   top-N slowest spans, headline metrics, quarantine count. *)
let dump_manifest path top =
  let m = Bolt_obs.Manifest.load path in
  Fmt.pr "%a" (Bolt_obs.Manifest.pp_slowest ~n:top) m;
  (match Bolt_obs.Json.member "metrics" m with
  | Some (Bolt_obs.Json.Obj fields) when fields <> [] ->
      Fmt.pr "metrics (%d):@." (List.length fields);
      List.iter
        (fun (name, body) ->
          match
            ( Bolt_obs.Json.member "type" body |> Bolt_obs.Json.get_string
              |> fun t -> Option.value ~default:"" t,
              Bolt_obs.Json.member "value" body )
          with
          | "counter", Some (Bolt_obs.Json.Int v) -> Fmt.pr "  %-40s %12d@." name v
          | "gauge", Some v ->
              Fmt.pr "  %-40s %12.4f@." name
                (Option.value ~default:0.0 (Bolt_obs.Json.get_float (Some v)))
          | _ -> ())
        fields
  | _ -> ());
  (* passes that fanned out over worker domains carry a "jobs" attr and
     per-function time distribution; their per-domain child spans show
     the load balance *)
  (match
     Bolt_obs.Manifest.flat_spans m
     |> List.filter (fun (s : Bolt_obs.Manifest.flat_span) ->
            List.mem_assoc "jobs" s.fs_attrs)
   with
  | [] -> ()
  | parallel ->
      Fmt.pr "parallel sections:@.";
      List.iter
        (fun (s : Bolt_obs.Manifest.flat_span) ->
          let geti k =
            match List.assoc_opt k s.fs_attrs with
            | Some (Bolt_obs.Json.Int i) -> i
            | _ -> 0
          in
          let getf k =
            match List.assoc_opt k s.fs_attrs with
            | Some (Bolt_obs.Json.Float f) -> f
            | _ -> 0.0
          in
          Fmt.pr "  %-20s jobs=%d fns=%d fn_p50=%.3f ms fn_p99=%.3f ms@."
            s.fs_name (geti "jobs") (geti "fn_n") (getf "fn_p50_ms")
            (getf "fn_p99_ms"))
        parallel);
  (match Bolt_obs.Json.member "quarantine" m with
  | Some (Bolt_obs.Json.List (_ :: _ as q)) ->
      Fmt.pr "quarantined functions: %d@." (List.length q)
  | _ -> ());
  0

(* --layout-score: score a binary's current block layout against a
   profile with lib/layout's offline evaluator — per-function ExtTSP
   score and estimated i-cache-line / i-TLB-page working sets, hottest
   functions first, no simulation run needed. *)
let dump_layout_score path fdata =
  match fdata with
  | None ->
      Fmt.epr "bdump: --layout-score needs a profile: bdump --layout-score EXE FDATA@.";
      1
  | Some fdata ->
      let exe = Objfile.load path in
      let prof = Bolt_profile.Fdata.load fdata in
      let ctx = Bolt_core.Context.create ~opts:Bolt_core.Opts.none exe in
      let env = Bolt_core.Passman.make_env ctx prof in
      Bolt_core.Passman.run env Bolt_core.Passman.pre_passes;
      let rows = Bolt_core.Layout_bbs.snapshot ctx in
      Printf.printf "%-28s %12s %12s %8s %6s %9s\n" "function" "exec count"
        "exttsp" "lines" "pages" "hot bytes";
      List.iter
        (fun (name, exec, (r : Bolt_layout.Evaluator.result)) ->
          Printf.printf "%-28s %12d %12.1f %8d %6d %9d\n" name exec
            r.Bolt_layout.Evaluator.ev_score
            r.Bolt_layout.Evaluator.ev_icache_lines
            r.Bolt_layout.Evaluator.ev_itlb_pages
            r.Bolt_layout.Evaluator.ev_hot_bytes)
        rows;
      let t = Bolt_core.Layout_bbs.snapshot_totals rows in
      Printf.printf "%-28s %12s %12.1f %8d %6d %9d\n" "TOTAL" ""
        t.Bolt_layout.Evaluator.ev_score t.Bolt_layout.Evaluator.ev_icache_lines
        t.Bolt_layout.Evaluator.ev_itlb_pages
        t.Bolt_layout.Evaluator.ev_hot_bytes;
      0

let run path fdata disas func relocs fdes lsdas fingerprints manifest layout_score top =
  if manifest then dump_manifest path top
  else if layout_score then dump_layout_score path fdata
  else begin
  let exe = Objfile.load path in
  Printf.printf "%s: %s, entry %#x\n" path
    (match exe.Objfile.kind with Objfile.Executable -> "executable" | Objfile.Object -> "relocatable")
    exe.Objfile.entry;
  Printf.printf "Build id: %s\n"
    (if exe.Objfile.build_id = "" then "<unstamped>" else exe.Objfile.build_id);
  Printf.printf "\nSections:\n";
  List.iter
    (fun (s : Types.section) ->
      Printf.printf "  %-12s %-7s addr %#10x size %8d\n" s.sec_name
        (match s.sec_kind with
        | Types.Text -> "TEXT"
        | Types.Rodata -> "RODATA"
        | Types.Data -> "DATA"
        | Types.Bss -> "BSS")
        s.sec_addr s.sec_size)
    exe.Objfile.sections;
  let funcs = Objfile.function_symbols exe in
  Printf.printf "\n%d functions, %d symbols, %d relocs, %d FDEs, %d LSDAs\n"
    (List.length funcs)
    (List.length exe.Objfile.symbols)
    (List.length exe.Objfile.relocs)
    (List.length exe.Objfile.fdes)
    (List.length exe.Objfile.lsdas);
  if relocs then begin
    Printf.printf "\nRelocations:\n";
    List.iter
      (fun (r : Types.reloc) ->
        Printf.printf "  %-10s+%-8x %-6s %s%+d\n" r.rel_section r.rel_offset
          (match r.rel_kind with
          | Types.Abs32 -> "ABS32"
          | Types.Abs64 -> "ABS64"
          | Types.Rel32 -> "REL32"
          | Types.Rel8 -> "REL8")
          r.rel_sym r.rel_addend)
      exe.Objfile.relocs
  end;
  if fdes then begin
    Printf.printf "\nFrame descriptors:\n";
    List.iter
      (fun (f : Types.fde) ->
        Printf.printf "  %s @%#x (%d bytes): %d CFI ops\n" f.fde_func f.fde_addr
          f.fde_size (List.length f.fde_cfi))
      exe.Objfile.fdes
  end;
  if lsdas then begin
    Printf.printf "\nException tables:\n";
    List.iter
      (fun (l : Types.lsda) ->
        Printf.printf "  %s @%#x:\n" l.lsda_func l.lsda_fn_addr;
        List.iter
          (fun (e : Types.lsda_entry) ->
            Printf.printf "    [%#x, +%d) -> pad %+d\n" e.lsda_start e.lsda_len e.lsda_pad)
          l.lsda_entries)
      exe.Objfile.lsdas
  end;
  if fingerprints then begin
    Printf.printf "\nFingerprints (%d):\n" (List.length exe.Objfile.fingerprints);
    let selected =
      match func with
      | Some name ->
          List.filter
            (fun (f : Fingerprint.func) -> f.Fingerprint.fp_func = name)
            exe.Objfile.fingerprints
      | None -> exe.Objfile.fingerprints
    in
    List.iter (fun f -> Fmt.pr "%a" Fingerprint.pp f) selected
  end;
  if disas then begin
    let selected =
      match func with
      | Some name -> List.filter (fun (s : Types.symbol) -> s.sym_name = name) funcs
      | None -> funcs
    in
    List.iter (dump_function exe (Objfile.Index.create exe)) selected
  end;
  0
  end

let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let fdata =
  Arg.(
    value
    & pos 1 (some file) None
    & info [] ~docv:"FDATA" ~doc:"Profile for --layout-score.")
let disas = Arg.(value & flag & info [ "d"; "disassemble" ])
let func = Arg.(value & opt (some string) None & info [ "func" ] ~doc:"Only this function.")
let relocs = Arg.(value & flag & info [ "relocs" ])
let fdes = Arg.(value & flag & info [ "fdes" ])
let lsdas = Arg.(value & flag & info [ "lsdas" ])

let fingerprints =
  Arg.(
    value & flag
    & info [ "fingerprints" ]
        ~doc:
          "Print the structural fingerprint table (per-function opcode and \
           CFG-shape hashes, per-block detail) stamped at link time for \
           stale-profile matching.")

let manifest =
  Arg.(
    value & flag
    & info [ "manifest" ]
        ~doc:"Treat $(i,FILE) as a telemetry run manifest (JSON) and print its slowest spans and metrics.")

let layout_score =
  Arg.(
    value & flag
    & info [ "layout-score" ]
        ~doc:
          "Score $(i,FILE)'s block layout against the $(i,FDATA) profile: \
           per-function ExtTSP score and estimated i-cache / i-TLB working \
           sets, hottest first.")

let top =
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Spans to show with --manifest.")

let cmd =
  Cmd.v
    (Cmd.info "bdump" ~doc:"inspect BELF objects and executables")
    Term.(
      const run $ path $ fdata $ disas $ func $ relocs $ fdes $ lsdas
      $ fingerprints $ manifest $ layout_score $ top)

let () = exit (Cmd.eval' cmd)
