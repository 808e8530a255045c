package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
	"unicode"
)

// readmeCommand is one command line of README's sh blocks.
type readmeCommand struct {
	line       int      // the README line it starts on
	block      int      // the sh block that holds it, counted from 0
	args       []string // its words as sh splits them, quotes removed
	background bool     // it ends in &
}

// tlstrend returns the arguments c gives tlstrend, and whether c runs
// tlstrend at all (as "go run ./cmd/tlstrend …" or "tlstrend …").
func (c readmeCommand) tlstrend() ([]string, bool) {
	switch {
	case len(c.args) >= 3 && c.args[0] == "go" && c.args[1] == "run" && strings.HasSuffix(c.args[2], "cmd/tlstrend"):
		return c.args[3:], true
	case len(c.args) >= 1 && c.args[0] == "tlstrend":
		return c.args[1:], true
	}
	return nil, false
}

// readmeCommands returns the command lines of README's ```sh blocks in README
// order: comments cut, a line that ends in a backslash joined with the next,
// and each split into words as sh would split it. What sh would take for more
// than words and a trailing & — a pipe, a redirect, an expansion, an unclosed
// quote — is an error naming the line.
func readmeCommands(readme string) ([]readmeCommand, error) {
	var cmds []readmeCommand
	block, inSh, joined, start := -1, false, "", 0
	for i, line := range strings.Split(readme, "\n") {
		if fence, ok := strings.CutPrefix(line, "```"); ok {
			if inSh = !inSh && fence == "sh"; inSh {
				block++
			}
			continue
		}
		if !inSh {
			continue
		}
		if joined == "" {
			start = i + 1
		}
		if head, ok := strings.CutSuffix(line, "\\"); ok {
			joined += head + " "
			continue
		}
		line, joined = joined+line, ""
		args, background, err := shellWords(line)
		if err != nil {
			return nil, fmt.Errorf("README.md:%d: %v: %s", start, err, line)
		}
		if len(args) > 0 {
			cmds = append(cmds, readmeCommand{start, block, args, background})
		}
	}
	return cmds, nil
}

// shellWords splits a command line into words as sh does for the subset
// README uses: blanks separate words, '…' and "…" quote, # at the start of a
// word begins a comment, and & may end the line.
func shellWords(s string) (words []string, background bool, err error) {
	var w strings.Builder
	inWord := false
	end := func() {
		if inWord {
			words = append(words, w.String())
			w.Reset()
			inWord = false
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if background && c != ' ' && c != '\t' && c != '#' {
			return nil, false, errors.New("& must end the command")
		}
		switch {
		case c == ' ' || c == '\t':
			end()
		case c == '#' && !inWord:
			return words, background, nil
		case c == '&':
			end()
			background = true
		case c == '\'' || c == '"':
			j := strings.IndexByte(s[i+1:], c)
			if j < 0 {
				return nil, false, fmt.Errorf("unclosed %c", c)
			}
			quoted := s[i+1 : i+1+j]
			if c == '"' && strings.ContainsAny(quoted, "$`\\") {
				return nil, false, errors.New("an expansion inside double quotes")
			}
			w.WriteString(quoted)
			inWord = true
			i += j + 1
		case strings.IndexByte("|;<>()$`\\*?[", c) >= 0:
			return nil, false, fmt.Errorf("shell syntax %q", c)
		default:
			w.WriteByte(c)
			inWord = true
		}
	}
	end()
	return words, background, nil
}

// shellLine spells args as one sh command line, single-quoting a word sh
// would split or expand, so a failure shows a line that can be pasted.
func shellLine(args []string) string {
	quoted := make([]string, len(args))
	for i, a := range args {
		plain := a != "" && !strings.ContainsFunc(a, func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsDigit(r) && !strings.ContainsRune("-_./:=@,+%", r)
		})
		if quoted[i] = a; !plain {
			quoted[i] = "'" + a + "'"
		}
	}
	return strings.Join(quoted, " ")
}

// readmeScale caps the -conns and -hosts a README command asks for, so the
// whole README runs in seconds.
const readmeScale = 20

// runREADME runs README's sh blocks in README order, all in dir, against the
// built binary bin:
//   - a tlstrend line runs as written, but for "-conns N" and "-hosts N"
//     capped at readmeScale;
//   - "serve … &" starts through startServe on ports of the kernel's choosing,
//     and the block's later mentions of the -http and -tcp addresses it was
//     given name the ones it got; a loopback address no server of the block
//     was given fails the command; every server a block starts gets SIGTERM
//     at the block's end, in reverse order, and must exit 0;
//   - a curl line is sent as the net/http request it spells and must be
//     answered 2xx;
//   - any other go line (build, test, the benchmark) is not run here, and any
//     other command fails the test.
//
// A failure names the README line and the command line as rewritten and run.
func runREADME(t *testing.T, bin, dir string, cmds []readmeCommand) {
	type server struct {
		line int
		ran  string
		cmd  *exec.Cmd
		wait func() (string, error)
	}
	var servers []server
	addrs := strings.NewReplacer()
	var renamed []string // README address, address served, …
	stop := func() {
		for _, s := range slices.Backward(servers) {
			if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Errorf("README.md:%d: %s: %v", s.line, s.ran, err)
				continue
			}
			killed := time.AfterFunc(30*time.Second, func() { _ = s.cmd.Process.Kill() })
			log, err := s.wait()
			killed.Stop()
			if err != nil {
				t.Errorf("README.md:%d: %s: after SIGTERM: %v, want exit 0\n%s", s.line, s.ran, err, log)
			}
		}
		servers, renamed, addrs = nil, nil, strings.NewReplacer()
	}
	// local rewrites the README addresses in args to the ones this block's
	// servers got, and refuses a loopback address none of them has: a block
	// talks only to the servers it starts, never to whatever else listens.
	local := func(args []string) ([]string, error) {
		out := make([]string, len(args))
		for i, a := range args {
			out[i] = addrs.Replace(a)
			started := false
			for j := 1; j < len(renamed); j += 2 {
				started = started || strings.Contains(out[i], renamed[j])
			}
			if strings.Contains(out[i], "127.0.0.1:") && !started {
				return nil, fmt.Errorf("%s names no server this block started", a)
			}
		}
		return out, nil
	}
	block := 0
	for _, c := range cmds {
		if c.block != block {
			stop()
			block = c.block
		}
		args, ok := c.tlstrend()
		if !ok {
			switch c.args[0] {
			case "curl":
				req, err := local(c.args)
				if err != nil {
					t.Errorf("README.md:%d: %s: %v", c.line, shellLine(c.args), err)
				} else if err := curl(dir, req[1:]); err != nil {
					t.Errorf("README.md:%d: %s: %v", c.line, shellLine(req), err)
				}
			case "go":
			default:
				t.Errorf("README.md:%d: README shows %s, which this test does not know how to run", c.line, shellLine(c.args))
			}
			continue
		}

		run := slices.Clone(args)
		listen := map[string]string{"-http": "127.0.0.1:8080"} // serve's default
		for i := 1; i+1 < len(run); i++ {
			switch flag := run[i]; {
			case run[0] == "serve" && (flag == "-http" || flag == "-tcp"):
				listen[flag] = run[i+1]
				run = slices.Delete(run, i, i+2)
				i--
			case flag == "-conns" || flag == "-hosts":
				if n, err := strconv.Atoi(run[i+1]); err == nil && n > readmeScale {
					run[i+1] = strconv.Itoa(readmeScale)
				}
			}
		}
		run, err := local(run)
		if err != nil {
			t.Errorf("README.md:%d: tlstrend %s: %v", c.line, shellLine(args), err)
			continue
		}

		if args[0] != "serve" || !c.background {
			if c.background {
				t.Errorf("README.md:%d: only serve runs in the background here", c.line)
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			started.Add(1)
			cmd := exec.CommandContext(ctx, bin, run...)
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			cancel()
			if err != nil {
				t.Errorf("README.md:%d: tlstrend %s: %v\n%s", c.line, shellLine(run), err, out)
			}
			continue
		}
		ran := "tlstrend serve -http 127.0.0.1:0 -tcp 127.0.0.1:0 " + shellLine(run[1:])
		t.Logf("README.md:%d: %s", c.line, ran)
		cmd, httpURL, tcpAddr, wait := startServe(t, bin, dir, run[1:]...)
		servers = append(servers, server{c.line, ran, cmd, wait})
		renamed = append(renamed, listen["-http"], strings.TrimPrefix(httpURL, "http://"))
		if at, ok := listen["-tcp"]; ok {
			renamed = append(renamed, at, tcpAddr)
		}
		addrs = strings.NewReplacer(renamed...)
	}
	stop()
}

// curl sends the request a README curl line spells (-s, -X, -d, --data,
// --data-binary with @file read from dir) and wants a 2xx answer.
func curl(dir string, args []string) error {
	method, url := "", ""
	var body io.Reader
	for i := 0; i < len(args); i++ {
		switch a := args[i]; a {
		case "-s", "--silent":
		case "-X", "--request", "-d", "--data", "--data-binary":
			if i++; i == len(args) {
				return fmt.Errorf("%s wants a value", a)
			}
			if a == "-X" || a == "--request" {
				method = args[i]
				break
			}
			data := []byte(args[i])
			if file, ok := strings.CutPrefix(args[i], "@"); ok {
				var err error
				if data, err = os.ReadFile(filepath.Join(dir, file)); err != nil {
					return err
				}
			}
			body = bytes.NewReader(data)
		default:
			if strings.HasPrefix(a, "-") || url != "" {
				return fmt.Errorf("curl argument %q is not one this test sends", a)
			}
			url = a
		}
	}
	if method == "" {
		method = http.MethodGet
		if body != nil {
			method = http.MethodPost
		}
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: time.Minute}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s\n%s", resp.Status, answer)
	}
	return err
}
