(* minicc: the MiniC compiler driver.

     minicc -o prog.x a.mc b.mc
     minicc -O2 --lto -o prog.x a.mc
     minicc -o prog.x w/*.mc w/*.bo --externs w/externals.txt   *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let compile srcs out opt lto emit_relocs function_sections pic_jt icf
    order_file externs_file =
  (* .bo positionals are pre-assembled BELF objects (genwork's assembly
     dispatchers); everything else is MiniC source *)
  let objs, mc_srcs =
    List.partition (fun p -> Filename.check_suffix p ".bo") srcs
  in
  let sources =
    List.map
      (fun path ->
        let name = Filename.remove_extension (Filename.basename path) in
        (name, read_file path))
      mc_srcs
  in
  let extra_objs = List.map Bolt_obj.Objfile.load objs in
  let externals =
    match externs_file with
    | None -> []
    | Some p ->
        read_file p |> String.split_on_char '\n'
        |> List.filter_map (fun line ->
               match String.split_on_char ' ' (String.trim line) with
               | [ "" ] -> None
               | [ name; arity ] -> (
                   match int_of_string_opt arity with
                   | Some a -> Some (name, a)
                   | None -> Fmt.failwith "bad externs line: %s" line)
               | _ -> Fmt.failwith "bad externs line: %s" line)
  in
  let func_order =
    Option.map
      (fun p ->
        let ic = open_in p in
        let rec loop acc =
          match input_line ic with
          | l -> loop (l :: acc)
          | exception End_of_file ->
              close_in ic;
              List.rev acc
        in
        loop [])
      order_file
  in
  let options =
    {
      Bolt_minic.Driver.default_options with
      opt_level = opt;
      lto;
      emit_relocs;
      function_sections;
      pic_jump_tables = pic_jt;
      linker_icf = icf;
      func_order;
    }
  in
  match Bolt_minic.Driver.compile ~options ~externals ~extra_objs sources with
  | r ->
      Bolt_obj.Objfile.save out r.exe;
      Fmt.pr "wrote %s (%d bytes of code, %d functions)@." out
        (Bolt_obj.Objfile.text_size r.exe)
        (List.length (Bolt_obj.Objfile.function_symbols r.exe));
      0
  | exception Bolt_minic.Parser.Parse_error (msg, line) ->
      Fmt.epr "parse error at line %d: %s@." line msg;
      1
  | exception Bolt_minic.Sema.Sema_error (msg, pos) ->
      Fmt.epr "error at %s:%d: %s@." pos.Bolt_minic.Ast.file pos.Bolt_minic.Ast.line msg;
      1

let srcs = Arg.(non_empty & pos_all file [] & info [] ~docv:"SOURCE")
let out = Arg.(value & opt string "a.x" & info [ "o" ] ~docv:"OUT" ~doc:"Output executable.")
let opt = Arg.(value & opt int 2 & info [ "O" ] ~doc:"Optimization level (0-2).")
let lto = Arg.(value & flag & info [ "lto" ] ~doc:"Whole-program (link-time) optimization.")

let emit_relocs =
  Arg.(value & opt bool true & info [ "emit-relocs" ] ~doc:"Keep relocations (BOLT relocations mode).")

let function_sections =
  Arg.(value & opt bool true & info [ "ffunction-sections" ] ~doc:"One section per function.")

let pic_jt =
  Arg.(value & opt bool true & info [ "pic-jump-tables" ] ~doc:"PIC jump tables.")

let icf = Arg.(value & flag & info [ "licf" ] ~doc:"Linker identical-code folding.")

let order_file =
  Arg.(value & opt (some file) None & info [ "function-order" ] ~doc:"Link-time function order file.")

let externs_file =
  Arg.(
    value & opt (some file) None
    & info [ "externs" ]
        ~doc:
          "Name/arity manifest (one \"name arity\" per line, genwork's \
           externals.txt) for functions defined in .bo objects.")

let cmd =
  Cmd.v
    (Cmd.info "minicc" ~doc:"MiniC compiler targeting BELF/BISA")
    Term.(
      const compile $ srcs $ out $ opt $ lto $ emit_relocs $ function_sections $ pic_jt
      $ icf $ order_file $ externs_file)

let () = exit (Cmd.eval' cmd)
