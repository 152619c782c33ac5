(* BELF well-formedness verification, run before optimization.

   A post-link rewriter consumes binaries it did not produce; a container
   that parses is not yet a container that is safe to rewrite.  This pass
   checks the structural invariants the optimizer relies on and reports
   everything it finds: [Fatal] issues mean no rewrite can be attempted at
   all (the driver refuses the input), [Warning] issues are degradations
   the pipeline is expected to survive (the affected functions are skipped
   or quarantined). *)

open Types

type severity = Warning | Fatal

type issue = { v_severity : severity; v_what : string }

let issue sev fmt = Fmt.kstr (fun s -> { v_severity = sev; v_what = s }) fmt

let run (t : Objfile.t) : issue list =
  let issues = ref [] in
  let push i = issues := i :: !issues in
  (* sections *)
  if t.Objfile.kind = Objfile.Executable && Objfile.find_section t ".text" = None
  then push (issue Fatal "no .text section");
  List.iter
    (fun s ->
      if s.sec_size < 0 then
        push (issue Fatal "section %s: negative size %d" s.sec_name s.sec_size)
      else if s.sec_kind <> Bss && Bytes.length s.sec_data <> s.sec_size then
        push
          (issue Fatal "section %s: size field %d but %d data bytes" s.sec_name
             s.sec_size (Bytes.length s.sec_data)))
    t.sections;
  let rec overlaps = function
    | [] -> ()
    | s :: rest ->
        List.iter
          (fun s' ->
            if
              s.sec_size > 0 && s'.sec_size > 0
              && s.sec_addr < s'.sec_addr + s'.sec_size
              && s'.sec_addr < s.sec_addr + s.sec_size
            then
              push
                (issue Warning "sections %s and %s overlap" s.sec_name
                   s'.sec_name))
          rest;
        overlaps rest
  in
  overlaps t.sections;
  (* symbols *)
  List.iter
    (fun (sym : symbol) ->
      (* in an executable, a symbol that points outside its section lies
         about where its code or data lives — the rewriter would relocate
         on bad coordinates, so these are fatal (objects, whose symbols
         are still section-relative, only warn) *)
      let sev = if t.Objfile.kind = Objfile.Executable then Fatal else Warning in
      if sym.sym_section <> "" then
        match Objfile.find_section t sym.sym_section with
        | None ->
            push
              (issue sev "symbol %s: dangling section reference %s" sym.sym_name
                 sym.sym_section)
        | Some s ->
            if sym.sym_size < 0 then
              push
                (issue sev "symbol %s: negative size %d" sym.sym_name
                   sym.sym_size)
            else if
              t.Objfile.kind = Objfile.Executable
              && sym.sym_size > 0
              && (sym.sym_value < s.sec_addr
                 || sym.sym_value + sym.sym_size > s.sec_addr + s.sec_size)
            then
              push
                (issue Fatal "symbol %s: range [%#x,%#x) outside section %s"
                   sym.sym_name sym.sym_value
                   (sym.sym_value + sym.sym_size)
                   sym.sym_section))
    t.symbols;
  (* relocations *)
  let sym_names = Hashtbl.create 64 in
  List.iter (fun (s : symbol) -> Hashtbl.replace sym_names s.sym_name ()) t.symbols;
  List.iter
    (fun (r : reloc) ->
      match Objfile.find_section t r.rel_section with
      | None ->
          push
            (issue Warning "relocation against missing section %s" r.rel_section)
      | Some s ->
          let width = match r.rel_kind with Abs64 -> 8 | Rel8 -> 1 | _ -> 4 in
          if r.rel_offset < 0 || r.rel_offset + width > s.sec_size then
            push
              (issue Warning "relocation offset %#x out of range in %s"
                 r.rel_offset r.rel_section)
          else if r.rel_sym <> "" && not (Hashtbl.mem sym_names r.rel_sym) then
            push (issue Warning "relocation against undefined symbol %s" r.rel_sym))
    t.relocs;
  (* symbol-table coherence (executables): function symbols must tile
     .text — sorted by address, no overlaps and no unclaimed runs larger
     than alignment padding.  Function discovery trusts these symbols; a
     table that lies about code boundaries can make the rewriter drop or
     corrupt live code while the input binary still runs fine, so
     incoherence is fatal, not a degradation. *)
  let max_align_pad = 15 in
  if t.Objfile.kind = Objfile.Executable then begin
    (* one name, one function: discovery keys functions by name and the
       rewriter resolves every call by name, so two function symbols
       that share a name at different addresses would send both names'
       calls to one body *)
    let func_at = Hashtbl.create 64 in
    List.iter
      (fun (s : symbol) ->
        if s.sym_kind = Func then
          match Hashtbl.find_opt func_at s.sym_name with
          | Some a when a <> s.sym_value ->
              push
                (issue Fatal
                   "symbol table incoherent: function %s at both %#x and %#x"
                   s.sym_name a s.sym_value)
          | Some _ -> ()
          | None -> Hashtbl.add func_at s.sym_name s.sym_value)
      t.symbols;
    List.iter
      (fun (sec : section) ->
        if sec.sec_kind = Text && sec.sec_size > 0 then begin
          let funcs =
            List.filter
              (fun (s : symbol) ->
                s.sym_kind = Func && s.sym_section = sec.sec_name
                && s.sym_size > 0)
              t.symbols
            |> List.sort (fun (a : symbol) b -> compare a.sym_value b.sym_value)
          in
          if funcs = [] then begin
            if sec.sec_name = ".text" then
              push (issue Fatal ".text has no function symbols")
          end
          else begin
            (* a gap is fine when it is alignment-sized or holds nothing
               but single-byte-nop filler (0x02, what the toolchain pads
               with); real instructions in unclaimed space mean a symbol
               is hiding live code *)
            let nop_gap lo hi =
              hi - lo <= max_align_pad
              ||
              let ok = ref true in
              for a = max lo sec.sec_addr to min hi (sec.sec_addr + sec.sec_size) - 1 do
                if Bytes.get sec.sec_data (a - sec.sec_addr) <> '\x02' then
                  ok := false
              done;
              !ok
            in
            let pos = ref sec.sec_addr in
            let prev = ref ("start of " ^ sec.sec_name) in
            List.iter
              (fun (s : symbol) ->
                if s.sym_value < !pos then begin
                  (* fully inside already-claimed code: an ICF alias or a
                     nested symbol, still coherent.  A range that starts
                     inside one function and spills past it is not. *)
                  if s.sym_value + s.sym_size > !pos then
                    push
                      (issue Fatal
                         "symbol table incoherent: %s [%#x,%#x) overlaps %s"
                         s.sym_name s.sym_value
                         (s.sym_value + s.sym_size)
                         !prev)
                end
                else if not (nop_gap !pos s.sym_value) then
                  push
                    (issue Fatal
                       "symbol table incoherent: %d unclaimed code bytes \
                        between %s and %s"
                       (s.sym_value - !pos) !prev s.sym_name);
                if s.sym_value + s.sym_size > !pos then
                  pos := s.sym_value + s.sym_size;
                prev := s.sym_name)
              funcs;
            if not (nop_gap !pos (sec.sec_addr + sec.sec_size)) then
              push
                (issue Fatal
                   "symbol table incoherent: %d unclaimed code bytes after %s"
                   (sec.sec_addr + sec.sec_size - !pos)
                   !prev)
          end
        end)
      t.sections
  end;
  (* relocation consistency (executables): the linker has already applied
     every surviving relocation, so the encoded field must equal the value
     recomputed from the symbol table.  A mismatch means the metadata lies
     about the code and any relocation-mode rewrite would miscompile. *)
  (if t.Objfile.kind = Objfile.Executable then
     let sym_value = Hashtbl.create 64 in
     let ambiguous = Hashtbl.create 4 in
     List.iter
       (fun (s : symbol) ->
         match Hashtbl.find_opt sym_value s.sym_name with
         | Some v when v <> s.sym_value -> Hashtbl.replace ambiguous s.sym_name ()
         | _ -> Hashtbl.replace sym_value s.sym_name s.sym_value)
       t.symbols;
     List.iter
       (fun (r : reloc) ->
         match Objfile.find_section t r.rel_section with
         | None -> () (* reported above *)
         | Some s when s.sec_kind = Bss -> ()
         | Some s -> (
             let width = match r.rel_kind with Abs64 -> 8 | Rel8 -> 1 | _ -> 4 in
             if
               r.rel_offset >= 0
               && r.rel_offset + width <= Bytes.length s.sec_data
               && (not (Hashtbl.mem ambiguous r.rel_sym))
             then
               match Hashtbl.find_opt sym_value r.rel_sym with
               | None -> () (* undefined: reported above *)
               | Some sv ->
                   let expect =
                     match r.rel_kind with
                     | Abs64 | Abs32 -> sv + r.rel_addend
                     | Rel32 | Rel8 ->
                         sv + r.rel_addend
                         - (s.sec_addr + r.rel_offset + r.rel_end)
                   in
                   let stored =
                     match r.rel_kind with
                     | Rel8 ->
                         let v = Char.code (Bytes.get s.sec_data r.rel_offset) in
                         if v >= 128 then v - 256 else v
                     | Abs32 | Rel32 ->
                         Int32.to_int (Bytes.get_int32_le s.sec_data r.rel_offset)
                     | Abs64 ->
                         Int64.to_int (Bytes.get_int64_le s.sec_data r.rel_offset)
                   in
                   let matches =
                     match r.rel_kind with
                     | Abs64 -> stored = expect
                     | Abs32 | Rel32 ->
                         stored land 0xffffffff = expect land 0xffffffff
                     | Rel8 -> stored land 0xff = expect land 0xff
                   in
                   if not matches then
                     push
                       (issue Fatal
                          "relocation %s+%#x (%s): encoded value %#x does not \
                           match symbol table (%#x) — stale or corrupt metadata"
                          r.rel_section r.rel_offset r.rel_sym stored expect)))
       t.relocs);
  (* frame info and exception tables *)
  let func_syms = Hashtbl.create 64 in
  List.iter
    (fun (s : symbol) ->
      if s.sym_kind = Func then Hashtbl.replace func_syms s.sym_name s)
    t.symbols;
  (match Objfile.find_section t ".text" with
  | Some text ->
      List.iter
        (fun (f : fde) ->
          if
            t.Objfile.kind = Objfile.Executable
            && f.fde_size > 0
            && (f.fde_addr < text.sec_addr
               || f.fde_addr + f.fde_size > text.sec_addr + text.sec_size)
          then
            push
              (issue Warning "frame descriptor %s: range [%#x,%#x) outside .text"
                 f.fde_func f.fde_addr (f.fde_addr + f.fde_size));
          (* a frame descriptor that disagrees with the symbol table would
             make the rewriter regenerate wrong unwind info: fatal *)
          if t.Objfile.kind = Objfile.Executable && f.fde_func <> "" then
            match Hashtbl.find_opt func_syms f.fde_func with
            | Some s
              when f.fde_addr <> s.sym_value
                   || (f.fde_size > 0 && f.fde_size <> s.sym_size) ->
                push
                  (issue Fatal
                     "frame descriptor %s [%#x,%#x) disagrees with symbol \
                      table [%#x,%#x)"
                     f.fde_func f.fde_addr (f.fde_addr + f.fde_size)
                     s.sym_value (s.sym_value + s.sym_size))
            | _ -> ())
        t.fdes;
      if
        t.Objfile.kind = Objfile.Executable && t.entry <> 0
        && Objfile.section_at t t.entry = None
      then push (issue Warning "entry point %#x outside every section" t.entry)
  | None -> ());
  List.iter
    (fun (l : lsda) ->
      List.iter
        (fun e ->
          if e.lsda_start < 0 || e.lsda_len < 0 || e.lsda_pad < 0 then
            push (issue Warning "exception table %s: negative range" l.lsda_func))
        l.lsda_entries;
      if t.Objfile.kind = Objfile.Executable then
        match Hashtbl.find_opt func_syms l.lsda_func with
        | Some s when l.lsda_fn_addr <> s.sym_value ->
            push
              (issue Fatal
                 "exception table %s anchored at %#x but symbol table says %#x"
                 l.lsda_func l.lsda_fn_addr s.sym_value)
        | _ -> ())
    t.lsdas;
  List.rev !issues

let fatal issues = List.filter (fun i -> i.v_severity = Fatal) issues
